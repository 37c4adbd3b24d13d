// Package predicate implements the predicate space of the paper
// (Section 3 and Section 4.2, component 1): predicates of the forms
//
//	t[A] ρ t'[B]   (cross-tuple; A may equal B)
//	t[A] ρ t[B]    (single-tuple; A ≠ B)
//
// where ρ ∈ {=, ≠, <, ≤, >, ≥}. Order operators apply only to numeric
// attributes; two distinct attributes are comparable only when they have
// the same broad kind and share at least a configurable fraction
// (30% by default, following Chu et al.) of common values.
//
// Predicates are assigned dense integer IDs. Predicates over the same
// (form, A, B) triple constitute an operator group; groups are the unit
// of the bit-level evidence construction (package evidence) and of the
// redundant-predicate removal in ADCEnum (Section 6.2).
package predicate

import (
	"fmt"
	"sort"
	"strings"

	"adc/internal/dataset"
)

// Operator is one of the six comparison operators B of the paper.
type Operator int

const (
	Eq Operator = iota
	Neq
	Lt
	Leq
	Gt
	Geq
	numOperators
)

// Symbol returns the operator's display form.
func (op Operator) Symbol() string {
	switch op {
	case Eq:
		return "="
	case Neq:
		return "!="
	case Lt:
		return "<"
	case Leq:
		return "<="
	case Gt:
		return ">"
	case Geq:
		return ">="
	default:
		return fmt.Sprintf("Operator(%d)", int(op))
	}
}

func (op Operator) String() string { return op.Symbol() }

// Complement returns the operator ρ̂ such that a ρ b holds iff a ρ̂ b does
// not (Section 3).
func (op Operator) Complement() Operator {
	switch op {
	case Eq:
		return Neq
	case Neq:
		return Eq
	case Lt:
		return Geq
	case Leq:
		return Gt
	case Gt:
		return Leq
	case Geq:
		return Lt
	default:
		panic("predicate: bad operator")
	}
}

// EvalNum evaluates a ρ b on numeric values.
func (op Operator) EvalNum(a, b float64) bool {
	switch op {
	case Eq:
		return a == b
	case Neq:
		return a != b
	case Lt:
		return a < b
	case Leq:
		return a <= b
	case Gt:
		return a > b
	case Geq:
		return a >= b
	default:
		panic("predicate: bad operator")
	}
}

// EvalOrder evaluates the operator on a three-way comparison result
// (cmp < 0, == 0, > 0 for a < b, a == b, a > b).
func (op Operator) EvalOrder(cmp int) bool {
	switch op {
	case Eq:
		return cmp == 0
	case Neq:
		return cmp != 0
	case Lt:
		return cmp < 0
	case Leq:
		return cmp <= 0
	case Gt:
		return cmp > 0
	case Geq:
		return cmp >= 0
	default:
		panic("predicate: bad operator")
	}
}

// ParseOperator parses an operator symbol, accepting both "!=" and "<>"
// as well as the unicode forms "≠", "≤", "≥".
func ParseOperator(s string) (Operator, error) {
	switch s {
	case "=", "==":
		return Eq, nil
	case "!=", "<>", "≠":
		return Neq, nil
	case "<":
		return Lt, nil
	case "<=", "≤":
		return Leq, nil
	case ">":
		return Gt, nil
	case ">=", "≥":
		return Geq, nil
	}
	return 0, fmt.Errorf("predicate: unknown operator %q", s)
}

// Predicate is a single element of the predicate space over a concrete
// relation. A and B are column indexes. Cross distinguishes the
// t[A] ρ t'[B] form (true) from the single-tuple t[A] ρ t[B] form.
type Predicate struct {
	ID    int
	A, B  int
	Op    Operator
	Cross bool
}

// Spec is a relation-independent description of a predicate, used to
// express golden DCs in dataset generators and to look predicates up by
// attribute name.
type Spec struct {
	A, B  string
	Op    Operator
	Cross bool
}

// String renders the spec in the paper's notation, e.g. "t.Zip = t'.Zip".
func (s Spec) String() string {
	if s.Cross {
		return fmt.Sprintf("t.%s %s t'.%s", s.A, s.Op, s.B)
	}
	return fmt.Sprintf("t.%s %s t.%s", s.A, s.Op, s.B)
}

// DCSpec is a relation-independent denial constraint
// ∀t,t'¬(spec1 ∧ ... ∧ specm).
type DCSpec []Spec

// String renders the DC in the paper's notation.
func (d DCSpec) String() string {
	parts := make([]string, len(d))
	for i, s := range d {
		parts[i] = s.String()
	}
	return "not(" + strings.Join(parts, " and ") + ")"
}

// Canonical returns a normalized key: the sorted predicate strings
// joined by " and ", with single-tuple predicates oriented by attribute
// name (t.Close > t.High and t.High < t.Close are the same predicate
// and produce the same key). Two DCs with the same predicate set have
// equal keys.
func (d DCSpec) Canonical() string {
	parts := make([]string, len(d))
	for i, s := range d {
		parts[i] = s.canonical().String()
	}
	sort.Strings(parts)
	return strings.Join(parts, " and ")
}

// canonical orients a single-tuple predicate by attribute name; the
// mirrored form denotes the same predicate.
func (s Spec) canonical() Spec {
	if !s.Cross && s.A > s.B {
		return Spec{A: s.B, B: s.A, Op: mirror(s.Op), Cross: false}
	}
	return s
}

// Group is a maximal set of predicates sharing (Cross, A, B): the
// operator variants over one attribute pair. Member IDs are indexed by
// operator; -1 marks an operator absent from the group (order operators
// on string attributes).
type Group struct {
	A, B    int
	Cross   bool
	Numeric bool
	ByOp    [numOperators]int
	Members []int
}

// Options configures predicate space generation.
type Options struct {
	// MinShared is the minimum fraction of common values required to
	// compare two distinct attributes (the paper's 30% rule). The larger
	// of the two directional fractions is compared against it.
	MinShared float64
	// SingleTuple enables t[A] ρ t[B] predicates.
	SingleTuple bool
	// CrossColumn enables t[A] ρ t'[B] predicates with A ≠ B.
	CrossColumn bool
}

// DefaultOptions mirrors the paper's setup: 30% rule, single-tuple and
// cross-column predicates enabled.
func DefaultOptions() Options {
	return Options{MinShared: 0.30, SingleTuple: true, CrossColumn: true}
}

// Space is the predicate space P_R over a relation, with complement
// links and operator groups.
type Space struct {
	Rel    *dataset.Relation
	Preds  []Predicate
	Groups []Group

	complement []int // predicate ID -> complement predicate ID
	groupOf    []int // predicate ID -> group index
	byKey      map[string]int
}

// Build generates the predicate space for rel under opts
// (the GeneratePSpace component of ADCMiner, Figure 1).
func Build(rel *dataset.Relation, opts Options) *Space {
	s := &Space{Rel: rel, byKey: make(map[string]int)}
	cols := rel.Columns

	// Same-attribute cross-tuple groups: always comparable to itself.
	for a := range cols {
		s.addGroup(a, a, true, cols[a].Type.Numeric())
	}
	if opts.CrossColumn || opts.SingleTuple {
		ok := comparablePairs(cols, opts.MinShared)
		for a := range cols {
			for b := range cols {
				if a == b || !ok[a][b] {
					continue
				}
				numeric := cols[a].Type.Numeric() && cols[b].Type.Numeric()
				// Cross-tuple pairs are symmetric at the pair level
				// (t[A] ρ t'[B] for a<b and b<a encode distinct predicates,
				// and both appear in FASTDC's space); keep both orders.
				if opts.CrossColumn {
					s.addGroup(a, b, true, numeric)
				}
				// Single-tuple predicates: keep a<b only, since
				// t[A] ρ t[B] and t[B] ρ̃ t[A] are the same constraint.
				if opts.SingleTuple && a < b {
					s.addGroup(a, b, false, numeric)
				}
			}
		}
	}
	return s
}

// comparablePairs applies the 30% common-values rule (Section 4.2) to
// every pair of distinct columns: ok[a][b] reports whether both columns
// are numeric or both are strings and the larger of the two directional
// shared-value fractions reaches minShared. Each column's values are
// counted once and each unordered pair is decided once.
func comparablePairs(cols []*dataset.Column, minShared float64) (ok [][]bool) {
	vals := make([]*dataset.ValueCounts, len(cols))
	ok = make([][]bool, len(cols))
	for a, c := range cols {
		vals[a] = c.ValueCounts()
		ok[a] = make([]bool, len(cols))
	}
	for a := range cols {
		for b := a + 1; b < len(cols); b++ {
			if cols[a].Type.Numeric() != cols[b].Type.Numeric() {
				continue
			}
			f := max(vals[a].SharedValueFraction(vals[b]), vals[b].SharedValueFraction(vals[a]))
			ok[a][b] = f >= minShared
			ok[b][a] = ok[a][b]
		}
	}
	return ok
}

func (s *Space) addGroup(a, b int, cross, numeric bool) {
	g := Group{A: a, B: b, Cross: cross, Numeric: numeric}
	for i := range g.ByOp {
		g.ByOp[i] = -1
	}
	ops := []Operator{Eq, Neq}
	if numeric {
		ops = []Operator{Eq, Neq, Lt, Leq, Gt, Geq}
	}
	gi := len(s.Groups)
	for _, op := range ops {
		id := len(s.Preds)
		p := Predicate{ID: id, A: a, B: b, Op: op, Cross: cross}
		s.Preds = append(s.Preds, p)
		s.groupOf = append(s.groupOf, gi)
		g.ByOp[op] = id
		g.Members = append(g.Members, id)
		s.byKey[s.specKey(p)] = id
	}
	s.Groups = append(s.Groups, g)

	// Complement links within the group.
	s.complement = growTo(s.complement, len(s.Preds))
	for _, id := range g.Members {
		comp := g.ByOp[s.Preds[id].Op.Complement()]
		s.complement[id] = comp
	}
}

func growTo(v []int, n int) []int {
	for len(v) < n {
		v = append(v, -1)
	}
	return v
}

// Size returns |P_R|.
func (s *Space) Size() int { return len(s.Preds) }

// Complement returns the ID of the complement predicate P̂.
func (s *Space) Complement(id int) int { return s.complement[id] }

// GroupOf returns the operator group containing predicate id.
func (s *Space) GroupOf(id int) *Group { return &s.Groups[s.groupOf[id]] }

// GroupMembers returns the IDs of all operator variants over the same
// attribute pair as id (including id itself). ADCEnum removes these from
// the candidate list after selecting id (Section 6.2).
func (s *Space) GroupMembers(id int) []int { return s.Groups[s.groupOf[id]].Members }

// Eval evaluates predicate id on the ordered tuple pair (i, j).
func (s *Space) Eval(id, i, j int) bool {
	p := s.Preds[id]
	ca, cb := s.Rel.Columns[p.A], s.Rel.Columns[p.B]
	r2 := j
	if !p.Cross {
		r2 = i
	}
	if s.Groups[s.groupOf[id]].Numeric {
		return p.Op.EvalNum(ca.Num(i), cb.Num(r2))
	}
	eq := equalAt(ca, i, cb, r2)
	if p.Op == Eq {
		return eq
	}
	return !eq
}

func equalAt(ca *dataset.Column, i int, cb *dataset.Column, j int) bool {
	if ca == cb {
		return ca.EqualRows(i, j)
	}
	return ca.EqualCross(i, cb, j)
}

// Spec returns the relation-independent description of predicate id.
func (s *Space) Spec(id int) Spec {
	p := s.Preds[id]
	return Spec{
		A:     s.Rel.Columns[p.A].Name,
		B:     s.Rel.Columns[p.B].Name,
		Op:    p.Op,
		Cross: p.Cross,
	}
}

func (s *Space) specKey(p Predicate) string {
	return s.Spec(p.ID).String()
}

// Lookup finds the predicate ID matching a spec. For single-tuple specs
// written with the columns in the reverse of the stored order, the
// equivalent mirrored predicate is returned. It returns -1 if the space
// does not contain the predicate (for example, when the 30% rule
// excluded the attribute pair).
func (s *Space) Lookup(sp Spec) int {
	if id, ok := s.byKey[sp.String()]; ok {
		return id
	}
	if !sp.Cross && sp.A != sp.B {
		mir := Spec{A: sp.B, B: sp.A, Op: mirror(sp.Op), Cross: false}
		if id, ok := s.byKey[mir.String()]; ok {
			return id
		}
	}
	return -1
}

// mirror maps ρ to the operator ρ̃ with a ρ b ⇔ b ρ̃ a.
func mirror(op Operator) Operator {
	switch op {
	case Lt:
		return Gt
	case Gt:
		return Lt
	case Leq:
		return Geq
	case Geq:
		return Leq
	default:
		return op
	}
}

// String renders predicate id in the paper's notation.
func (s *Space) String(id int) string { return s.Spec(id).String() }

// SameStructure reports whether two spaces enumerate the same predicate
// sequence — identical (A, B, Op, Cross) at every ID — which is the
// condition for evidence bitsets built against s to keep their meaning
// against other. The 30% shared-values rule makes Build data-dependent,
// so appending rows can change the structure; incremental evidence
// maintenance checks this before patching a cached set and falls back
// to a scratch build when it fails.
func (s *Space) SameStructure(other *Space) bool {
	if s == nil || other == nil {
		return s == other
	}
	if len(s.Preds) != len(other.Preds) {
		return false
	}
	for i := range s.Preds {
		if s.Preds[i] != other.Preds[i] {
			return false
		}
	}
	return true
}
