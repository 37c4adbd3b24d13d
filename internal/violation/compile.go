package violation

import (
	"fmt"

	"adc/internal/dataset"
	"adc/internal/predicate"
)

// compiledPred is one predicate of a denial constraint bound to concrete
// columns of a relation, with a type-specialized evaluator. Unlike
// predicate.Space, compilation needs no predicate-space generation (and
// in particular does not apply the 30% common-values rule), so any
// well-typed user constraint can be checked, not only constraints whose
// predicates the miner would generate.
type compiledPred struct {
	spec    predicate.Spec
	op      predicate.Operator
	cross   bool
	a, b    int  // column indexes in the relation
	numeric bool // both columns numeric
	// wide marks an Int–Int predicate over a column holding a value
	// beyond ±2^53 (pliCache.wideInt). The numeric indexes key values by
	// float64, which merges such neighbours, so the predicate is never a
	// join key, driver or count key; it is evaluated as int64 per pair.
	wide bool
	// eval evaluates the predicate on the ordered tuple pair (i, j).
	// Single-tuple predicates ignore j.
	eval func(i, j int) bool
}

// sameAttrEq reports whether the predicate is a cross-tuple equality on
// one attribute (t[A] = t'[A]) — the cluster-joinable form the eqjoin
// grouping exploits.
func (p compiledPred) sameAttrEq() bool {
	return p.cross && p.op == predicate.Eq && p.a == p.b && !p.wide
}

// sameAttrNeq reports whether the predicate is t[A] ≠ t'[A] over a
// column the count phase can key.
func (p compiledPred) sameAttrNeq() bool {
	return p.cross && p.op == predicate.Neq && p.a == p.b && !p.wide
}

// crossColEq reports whether the predicate is a cross-tuple equality
// over two distinct attributes (t[A] = t'[B]), joinable via merged
// equality codes.
func (p compiledPred) crossColEq() bool {
	return p.cross && p.op == predicate.Eq && p.a != p.b && !p.wide
}

// orderKeyed reports whether the predicate is a cross-tuple order
// comparison the sorted numeric values can answer: a grouped plan's
// driver or a count key.
func (p compiledPred) orderKeyed() bool {
	return p.cross && isOrderOp(p.op) && p.numeric && !p.wide
}

// selRank is the static operator ranking the planner falls back on to
// break ties between predicates whose estimated selectivities are
// equal: equality is the most selective, then strict order comparisons,
// then their non-strict forms; inequality almost always holds and goes
// last. (The primary ordering is statistics-driven — see orderCross.)
func selRank(op predicate.Operator) int {
	switch op {
	case predicate.Eq:
		return 0
	case predicate.Lt, predicate.Gt:
		return 1
	case predicate.Leq, predicate.Geq:
		return 2
	default: // Neq
		return 3
	}
}

// compileDC resolves every predicate of a relation-independent DCSpec
// against the cache's relation. It fails on unknown columns, order
// operators over string columns, and comparisons across broad kinds
// (numeric vs string).
func compileDC(cache *pliCache, spec predicate.DCSpec) ([]compiledPred, error) {
	if len(spec) == 0 {
		return nil, fmt.Errorf("violation: empty DC (a constraint needs at least one predicate)")
	}
	out := make([]compiledPred, 0, len(spec))
	for _, sp := range spec {
		p, err := compileSpec(cache.rel, sp)
		if err != nil {
			return nil, err
		}
		cols := cache.rel.Columns
		p.wide = cols[p.a].Type == dataset.Int && cols[p.b].Type == dataset.Int &&
			(cache.wideInt(p.a) || cache.wideInt(p.b))
		out = append(out, p)
	}
	return out, nil
}

func compileSpec(rel *dataset.Relation, sp predicate.Spec) (compiledPred, error) {
	ai := rel.ColumnIndex(sp.A)
	if ai < 0 {
		return compiledPred{}, fmt.Errorf("violation: %s: relation %q has no column %q", sp, rel.Name, sp.A)
	}
	bi := rel.ColumnIndex(sp.B)
	if bi < 0 {
		return compiledPred{}, fmt.Errorf("violation: %s: relation %q has no column %q", sp, rel.Name, sp.B)
	}
	ca, cb := rel.Columns[ai], rel.Columns[bi]
	numeric := ca.Type.Numeric() && cb.Type.Numeric()
	if !numeric {
		if ca.Type.Numeric() != cb.Type.Numeric() {
			return compiledPred{}, fmt.Errorf("violation: %s compares %s column %q with %s column %q",
				sp, ca.Type, sp.A, cb.Type, sp.B)
		}
		if sp.Op != predicate.Eq && sp.Op != predicate.Neq {
			return compiledPred{}, fmt.Errorf("violation: %s: order operator %s on string columns", sp, sp.Op)
		}
	}
	p := compiledPred{spec: sp, op: sp.Op, cross: sp.Cross, a: ai, b: bi, numeric: numeric}
	op := sp.Op
	switch {
	case ca.Type == dataset.Int && cb.Type == dataset.Int:
		av, bv := ca.Ints, cb.Ints
		if sp.Cross {
			p.eval = func(i, j int) bool { return evalInt(op, av[i], bv[j]) }
		} else {
			p.eval = func(i, _ int) bool { return evalInt(op, av[i], bv[i]) }
		}
	case numeric:
		// Mixed int/float or float/float: compare through the numeric
		// view, mirroring predicate.Space.Eval.
		if sp.Cross {
			p.eval = func(i, j int) bool { return op.EvalNum(ca.Num(i), cb.Num(j)) }
		} else {
			p.eval = func(i, _ int) bool { return op.EvalNum(ca.Num(i), cb.Num(i)) }
		}
	case ai == bi:
		// One string column compared with itself: dictionary codes decide
		// equality without touching the strings.
		codes := ca.Codes
		if op == predicate.Eq {
			p.eval = func(i, j int) bool { return codes[i] == codes[j] }
		} else {
			p.eval = func(i, j int) bool { return codes[i] != codes[j] }
		}
		if !sp.Cross { // t[A] ρ t[A]: constant per row
			if op == predicate.Eq {
				p.eval = func(_, _ int) bool { return true }
			} else {
				p.eval = func(_, _ int) bool { return false }
			}
		}
	default:
		// Distinct string columns: dictionaries are per column, so compare
		// the raw strings (as dataset.Column.EqualCross does).
		as, bs := ca.Strings, cb.Strings
		eq := op == predicate.Eq
		if sp.Cross {
			p.eval = func(i, j int) bool { return (as[i] == bs[j]) == eq }
		} else {
			p.eval = func(i, _ int) bool { return (as[i] == bs[i]) == eq }
		}
	}
	return p, nil
}

func evalInt(op predicate.Operator, a, b int64) bool {
	switch op {
	case predicate.Eq:
		return a == b
	case predicate.Neq:
		return a != b
	case predicate.Lt:
		return a < b
	case predicate.Leq:
		return a <= b
	case predicate.Gt:
		return a > b
	default: // Geq
		return a >= b
	}
}

// splitPreds separates single-tuple predicates (which depend only on the
// first tuple and fold into a per-row mask) from cross-tuple predicates.
// Cross-tuple ordering happens afterwards in orderCross, which ranks by
// estimated selectivity from column statistics.
func splitPreds(preds []compiledPred) (singles, cross []compiledPred) {
	for _, p := range preds {
		if p.cross {
			cross = append(cross, p)
		} else {
			singles = append(singles, p)
		}
	}
	return singles, cross
}

// singleMask evaluates all single-tuple predicates once per row. A row
// with a false entry can never be the first tuple of a violating pair.
// Returns nil when there are no single-tuple predicates.
func singleMask(n int, singles []compiledPred) []bool {
	if len(singles) == 0 {
		return nil
	}
	mask := make([]bool, n)
	for i := range mask {
		ok := true
		for _, p := range singles {
			if !p.eval(i, i) {
				ok = false
				break
			}
		}
		mask[i] = ok
	}
	return mask
}
