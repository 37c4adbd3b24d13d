package violation

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"adc/internal/dataset"
	"adc/internal/par"
	"adc/internal/predicate"
)

// The count phase answers a capped check (MaxPairs > 0) of a countable
// DC without visiting every violating pair. Rows are grouped by the
// DC's same-attribute equalities — the eqjoin groups, or the whole
// relation when there are none — and within each group every tuple's
// out-degree (pairs it leads) and in-degree (pairs it follows) are
// computed in closed form, the single-tuple mask weighting the leading
// tuple. The f1/f2/f3 losses need only these counts. The pair list is
// then materialized from the smallest rows with a nonzero out-degree,
// in ascending order, so it holds the lexicographically smallest
// MaxPairs pairs, as the enumerating executors return.
//
// A DC is countable when the cross-tuple predicates the grouping leaves
// are one of:
//   - none (a key, or a DC of single-tuple predicates only): every
//     ordered pair of a group violates;
//   - same-attribute ≠ only: a row's partners are its group minus the
//     rows sharing its value, refined by inclusion–exclusion over the
//     subsets of the ≠ columns when there are several;
//   - one or two same-attribute order predicates: a sweep over the
//     group sorted by the first, counting the second with a Fenwick
//     tree (dominance counting, as behind IEJoin).

// countKind is the closed form a countable DC takes.
type countKind int

const (
	countAll   countKind = iota // no residual: every pair of a group
	countNeq                    // same-attribute ≠ residuals
	countOrder                  // one or two same-attribute order residuals
)

// maxCountNeq bounds the ≠ residuals counted by inclusion–exclusion,
// which sorts each group once per non-empty subset of them; a DC with
// more is enumerated.
const maxCountNeq = 4

// countPlan is the count phase prepared for one countable DC. Like the
// other plans it is built once per Checker and immutable afterwards.
type countPlan struct {
	kind countKind
	// residual is every cross-tuple predicate the grouping leaves; the
	// materialization evaluates them per candidate pair.
	residual []compiledPred
	// groups are the eqjoin groups: the rows agreeing on every
	// same-attribute equality, in groups of at least two, rows ascending
	// as PLI clusters list them. A DC with no such equality has all rows
	// as one group.
	groups [][]int32
	// all is the whole-relation group, when groups is [all].
	all []int32
	// maxGroup is the largest group's size, the size of a worker's
	// scratch.
	maxGroup int
	// keys are the ≠ columns (countNeq).
	keys []keyCol
	// orderCols and orderOps are the order residuals (countOrder);
	// sorted is every group's rows in sweep order (sortByValue on the
	// first column), shared with the eqjoin pushdown for the groups it
	// sorted; ownSorted counts the rows of the rest, for MemBytes.
	orderCols []*dataset.Column
	orderOps  []predicate.Operator
	sorted    [][]int32
	ownSorted int
}

// keyCol is one ≠ column's values as the refinement compares them:
// dictionary codes for strings, int64 for Int, IEEE equality for Float
// (NaN equals nothing, −0 equals +0). Exactly one slice is set.
type keyCol struct {
	codes  []int32
	ints   []int64
	floats []float64
}

// cmpRows orders rows r and s by the column's value. Equal values
// compare 0; a NaN orders before every number and apart from every
// other row, so it shares a class with no row.
func (k keyCol) cmpRows(r, s int32) int {
	switch {
	case k.codes != nil:
		return cmp.Compare(k.codes[r], k.codes[s])
	case k.ints != nil:
		return cmp.Compare(k.ints[r], k.ints[s])
	}
	a, b := k.floats[r], k.floats[s]
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	if aNaN, bNaN := a != a, b != b; aNaN != bNaN {
		if aNaN {
			return -1
		}
		return 1
	}
	return cmp.Compare(r, s)
}

// prepareCountPlan returns the DC's count phase, or nil when the DC is
// not countable. Countability depends on the DC's predicates alone, not
// on the shape the planner picks for enumeration.
func prepareCountPlan(cache *pliCache, p *dcPlan) *countPlan {
	cp := &countPlan{}
	grouped := false
	for _, q := range p.cross {
		if q.sameAttrEq() {
			grouped = true
		} else {
			cp.residual = append(cp.residual, q)
		}
	}
	cols := cache.rel.Columns
	switch {
	case len(cp.residual) == 0:
		cp.kind = countAll
	case len(cp.residual) <= maxCountNeq && allPreds(cp.residual, compiledPred.sameAttrNeq):
		cp.kind = countNeq
		for _, q := range cp.residual {
			c := cols[q.a]
			switch c.Type {
			case dataset.String:
				cp.keys = append(cp.keys, keyCol{codes: c.Codes})
			case dataset.Int:
				cp.keys = append(cp.keys, keyCol{ints: c.Ints})
			default:
				cp.keys = append(cp.keys, keyCol{floats: c.Floats})
			}
		}
	case len(cp.residual) <= 2 && allPreds(cp.residual, func(q compiledPred) bool { return q.orderKeyed() && q.a == q.b }):
		cp.kind = countOrder
		for _, q := range cp.residual {
			cp.orderCols = append(cp.orderCols, cols[q.a])
			cp.orderOps = append(cp.orderOps, q.op)
		}
	default:
		return nil
	}
	var pushed [][]int32
	if grouped {
		pp := p.pliPlan(cache)
		cp.groups = pp.groups
		if pp.driver != nil {
			// The pushdown drives by the residual's first order-keyed
			// predicate, which for countOrder is residual[0]: the groups
			// it sorted are already in sweep order.
			pushed = pp.groupRows
		}
	} else {
		cp.all = make([]int32, cache.rel.NumRows())
		for i := range cp.all {
			cp.all[i] = int32(i)
		}
		cp.groups = [][]int32{cp.all}
	}
	for _, g := range cp.groups {
		cp.maxGroup = max(cp.maxGroup, len(g))
	}
	if cp.kind == countOrder {
		cp.sorted = make([][]int32, len(cp.groups))
		for k, g := range cp.groups {
			if pushed != nil && pushed[k] != nil {
				cp.sorted[k] = pushed[k]
			} else {
				cp.sorted[k] = sortByValue(g, cp.orderCols[0])
				cp.ownSorted += len(cp.sorted[k])
			}
		}
	}
	return cp
}

func allPreds(preds []compiledPred, ok func(compiledPred) bool) bool {
	for _, p := range preds {
		if !ok(p) {
			return false
		}
	}
	return true
}

// firstRow is a row with a nonzero out-degree: a candidate leader of
// the first MaxPairs pairs.
type firstRow struct {
	row, group int32
	out        int64
}

// countWorker is one goroutine's state: its share of the violation
// total, its smallest rows with a nonzero out-degree (at most maxRows),
// and scratch reused across groups, allocated once at the plan's
// largest group size.
type countWorker struct {
	maxRows    int
	size       int
	violations int64
	first      []firstRow

	out, in  []int64
	pos      []int32
	pts      []orderPt
	masked   []int32
	rank     []int32
	keys2    []float64
	fenwick  []int64
	subset   []keyCol
	identity []int32
}

// orderPt is a row of a countOrder group with its order values.
type orderPt struct {
	v1, v2 float64
	row    int32
}

// scratch returns s with length n ≤ size and every element zero,
// allocating it at capacity size on first use.
func scratch[T any](s []T, n, size int) []T {
	if cap(s) < size {
		return make([]T, n, size)
	}
	s = s[:n]
	clear(s)
	return s
}

// count runs the count phase: exact per-tuple counts and violation
// total, and the first maxPairs violating pairs. Groups are disjoint,
// so workers write their rows' counts in place.
func (cp *countPlan) count(n int, mask []bool, workers, maxPairs int) *collector {
	col := &collector{counts: make([]int64, n)}
	workers = max(min(clampWorkers(workers, n), len(cp.groups)), 1)
	ws := make([]countWorker, workers)
	var cursor atomic.Int64
	par.Do(workers, workers, func(w int) {
		cw := &ws[w]
		cw.maxRows, cw.size = maxPairs, cp.maxGroup
		for k := int(cursor.Add(1)) - 1; k < len(cp.groups); k = int(cursor.Add(1)) - 1 {
			switch cp.kind {
			case countAll:
				cp.countAll(cw, k, mask, col.counts)
			case countNeq:
				cp.countNeq(cw, k, mask, col.counts)
			default:
				cp.countOrder(cw, k, mask, col.counts)
			}
		}
	})
	var first []firstRow
	for w := range ws {
		col.violations += ws[w].violations
		first = append(first, ws[w].first...)
	}
	slices.SortFunc(first, func(a, b firstRow) int { return cmp.Compare(a.row, b.row) })
	cp.materialize(col, first[:min(len(first), maxPairs)], maxPairs)
	return col
}

// materialize evaluates the residual predicates from each leading row
// to its group's rows, in ascending order, until maxPairs pairs are
// listed. A row stops once its out-degree's partners are found.
func (cp *countPlan) materialize(col *collector, first []firstRow, maxPairs int) {
	for _, f := range first {
		i := int(f.row)
		found := int64(0)
		for _, j32 := range cp.groups[f.group] {
			j := int(j32)
			if j == i {
				continue
			}
			col.examined++
			if !holds(cp.residual, i, j) {
				continue
			}
			col.pairs = append(col.pairs, [2]int{i, j})
			if len(col.pairs) == maxPairs {
				return
			}
			if found++; found == f.out {
				break
			}
		}
	}
}

func holds(preds []compiledPred, i, j int) bool {
	for k := range preds {
		if !preds[k].eval(i, j) {
			return false
		}
	}
	return true
}

// emit records one row's counts: out + in into the shared counts (rows
// of different groups never collide), out into the violation total and,
// when nonzero, the row into the bounded list of smallest leaders.
func (w *countWorker) emit(counts []int64, row int32, group int, out, in int64) {
	counts[row] = out + in
	if out == 0 {
		return
	}
	w.violations += out
	f := w.first
	if len(f) == w.maxRows && row > f[len(f)-1].row {
		return
	}
	at := sort.Search(len(f), func(k int) bool { return f[k].row > row })
	if len(f) < w.maxRows {
		f = append(f, firstRow{})
	}
	copy(f[at+1:], f[at:len(f)-1])
	f[at] = firstRow{row: row, group: int32(group), out: out}
	w.first = f
}

// bit is 1 when the row may lead a violating pair under the mask.
func bit(mask []bool, row int32) int64 {
	if mask == nil || mask[row] {
		return 1
	}
	return 0
}

func maskedIn(rows []int32, mask []bool) int64 {
	if mask == nil {
		return int64(len(rows))
	}
	var m int64
	for _, r := range rows {
		m += bit(mask, r)
	}
	return m
}

// countAll: every row of the group leads a pair with each other row
// when its mask allows, and follows every other masked row.
func (cp *countPlan) countAll(w *countWorker, k int, mask []bool, counts []int64) {
	g := cp.groups[k]
	m := int64(len(g))
	masked := maskedIn(g, mask)
	for _, r := range g {
		mk := bit(mask, r)
		w.emit(counts, r, k, mk*(m-1), masked-mk)
	}
}

// countNeq counts pairs differing on every ≠ column by inclusion–
// exclusion: over each subset S of the columns (S = ∅ included), the
// rows agreeing with a row on all of S form its class under S, a run
// of the group sorted by S, counted with sign (−1)^|S|. A row is in
// each of its classes, and the signs over the subsets sum to 0, so the
// row itself drops out of its own count.
func (cp *countPlan) countNeq(w *countWorker, k int, mask []bool, counts []int64) {
	g := cp.groups[k]
	m := len(g)
	w.out, w.in, w.pos = scratch(w.out, m, w.size), scratch(w.in, m, w.size), scratch(w.pos, m, w.size)
	out, in, pos := w.out, w.in, w.pos
	for s := 0; s < 1<<len(cp.keys); s++ {
		sign := int64(1)
		if bits.OnesCount(uint(s))%2 == 1 {
			sign = -1
		}
		w.subset = w.subset[:0]
		for c, key := range cp.keys {
			if s&(1<<c) != 0 {
				w.subset = append(w.subset, key)
			}
		}
		keys := w.subset
		same := func(x, y int32) int {
			for _, key := range keys {
				if c := key.cmpRows(g[x], g[y]); c != 0 {
					return c
				}
			}
			return 0
		}
		for p := range pos {
			pos[p] = int32(p)
		}
		if len(keys) > 0 {
			slices.SortFunc(pos, same)
		}
		for lo := 0; lo < m; {
			hi := lo + 1
			for hi < m && same(pos[lo], pos[hi]) == 0 {
				hi++
			}
			cls, mcls := int64(hi-lo), int64(0)
			for _, p := range pos[lo:hi] {
				mcls += bit(mask, g[p])
			}
			for _, p := range pos[lo:hi] {
				out[p] += sign * cls
				in[p] += sign * mcls
			}
			lo = hi
		}
	}
	for p, r := range g {
		w.emit(counts, r, k, bit(mask, r)*out[p], in[p])
	}
}

// countOrder counts pairs satisfying one or two same-attribute order
// predicates. Rows with a NaN order value satisfy no order comparison
// and drop out. The rest, sorted by the first column, are swept twice:
// out-degrees query the masked rows against all rows, in-degrees all
// rows against the masked ones with the operators flipped. A row pairs
// with itself only when every operator is non-strict; that pair is
// taken back off.
func (cp *countPlan) countOrder(w *countWorker, k int, mask []bool, counts []int64) {
	c1 := cp.orderCols[0]
	two := len(cp.orderCols) == 2
	c2 := c1
	if two {
		c2 = cp.orderCols[1]
	}
	pts := scratch(w.pts, 0, w.size)
	for _, r := range cp.sorted[k] {
		if v2 := c2.Num(int(r)); v2 == v2 {
			pts = append(pts, orderPt{v1: c1.Num(int(r)), v2: v2, row: r})
		}
	}
	w.pts = pts
	l := len(pts)
	w.out, w.in = scratch(w.out, l, w.size), scratch(w.in, l, w.size)
	w.identity, w.masked = scratch(w.identity, 0, w.size), scratch(w.masked, 0, w.size)
	for p := range pts {
		w.identity = append(w.identity, int32(p))
		if bit(mask, pts[p].row) == 1 {
			w.masked = append(w.masked, int32(p))
		}
	}
	if two {
		w.keys2 = scratch(w.keys2, 0, w.size)
		for _, pt := range pts {
			w.keys2 = append(w.keys2, pt.v2)
		}
		slices.Sort(w.keys2)
		w.keys2 = slices.Compact(w.keys2)
		w.rank = scratch(w.rank, l, w.size)
		for p, pt := range pts {
			w.rank[p] = int32(sort.SearchFloat64s(w.keys2, pt.v2))
		}
	}
	op1, op2 := cp.orderOps[0], predicate.Geq // op2 is unused with one predicate
	if two {
		op2 = cp.orderOps[1]
	}
	w.sweep(w.out, w.masked, w.identity, op1, op2, two)
	w.sweep(w.in, w.identity, w.masked, flipOp(op1), flipOp(op2), two)
	if !strictOp(op1) && (!two || !strictOp(op2)) {
		for _, p := range w.masked {
			w.out[p]--
			w.in[p]--
		}
	}
	for p, pt := range pts {
		w.emit(counts, pt.row, k, w.out[p], w.in[p])
	}
}

// sweep adds to cnt[q], for every position q of qs, the number of
// positions d of ds with v1(q) op1 v1(d) and, when two, v2(q) op2
// v2(d). Both lists ascend by v1, so the partners under op1 form a
// prefix (for > and ≥) or a suffix (for < and ≤) that only grows as the
// sweep moves away from it; a Fenwick tree over the ranks of v2 counts
// the inserted partners satisfying op2.
func (w *countWorker) sweep(cnt []int64, qs, ds []int32, op1, op2 predicate.Operator, two bool) {
	pts := w.pts
	asc := op1 == predicate.Gt || op1 == predicate.Geq
	strict := strictOp(op1)
	if two {
		w.fenwick = scratch(w.fenwick, len(w.keys2)+1, w.size+1)
	}
	inserted := 0
	for t := range qs {
		q := qs[t]
		if !asc {
			q = qs[len(qs)-1-t]
		}
		for inserted < len(ds) {
			d := ds[inserted]
			if !asc {
				d = ds[len(ds)-1-inserted]
			}
			x, y := pts[d].v1, pts[q].v1
			if x == y && strict || asc && x > y || !asc && x < y {
				break
			}
			if two {
				for r := int(w.rank[d]) + 1; r < len(w.fenwick); r += r & -r {
					w.fenwick[r]++
				}
			}
			inserted++
		}
		if !two {
			cnt[q] += int64(inserted)
			continue
		}
		lo, hi := rangeBounds(w.keys2, pts[q].v2, op2)
		cnt[q] += w.prefix(hi) - w.prefix(lo)
	}
}

// prefix sums the Fenwick tree's first n ranks.
func (w *countWorker) prefix(n int) int64 {
	var s int64
	for r := n; r > 0; r -= r & -r {
		s += w.fenwick[r]
	}
	return s
}

func strictOp(op predicate.Operator) bool { return op == predicate.Lt || op == predicate.Gt }

// flipOp swaps an order operator's operands: a op b iff b flipOp(op) a.
func flipOp(op predicate.Operator) predicate.Operator {
	switch op {
	case predicate.Lt:
		return predicate.Gt
	case predicate.Gt:
		return predicate.Lt
	case predicate.Leq:
		return predicate.Geq
	}
	return predicate.Leq
}
