package predicate_test

import (
	"math"
	"slices"
	"testing"

	"adc/internal/bitset"
	"adc/internal/datagen"
	"adc/internal/dataset"
	"adc/internal/predicate"
)

func space(t *testing.T) *predicate.Space {
	t.Helper()
	return predicate.Build(datagen.RunningExample(), predicate.DefaultOptions())
}

func TestOperatorComplement(t *testing.T) {
	pairs := map[predicate.Operator]predicate.Operator{
		predicate.Eq:  predicate.Neq,
		predicate.Lt:  predicate.Geq,
		predicate.Leq: predicate.Gt,
	}
	for op, comp := range pairs {
		if op.Complement() != comp {
			t.Errorf("Complement(%v) = %v, want %v", op, op.Complement(), comp)
		}
		if comp.Complement() != op {
			t.Errorf("Complement(%v) = %v, want %v", comp, comp.Complement(), op)
		}
	}
}

func TestOperatorEvalComplementary(t *testing.T) {
	vals := []float64{-2, 0, 1, 1, 3.5}
	ops := []predicate.Operator{predicate.Eq, predicate.Neq, predicate.Lt,
		predicate.Leq, predicate.Gt, predicate.Geq}
	for _, a := range vals {
		for _, b := range vals {
			for _, op := range ops {
				if op.EvalNum(a, b) == op.Complement().EvalNum(a, b) {
					t.Fatalf("%v and its complement agree on (%v, %v)", op, a, b)
				}
			}
		}
	}
}

func TestParseOperator(t *testing.T) {
	for s, want := range map[string]predicate.Operator{
		"=": predicate.Eq, "==": predicate.Eq, "!=": predicate.Neq,
		"<>": predicate.Neq, "<": predicate.Lt, "<=": predicate.Leq,
		">": predicate.Gt, ">=": predicate.Geq, "≠": predicate.Neq,
	} {
		got, err := predicate.ParseOperator(s)
		if err != nil || got != want {
			t.Errorf("ParseOperator(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := predicate.ParseOperator("~"); err == nil {
		t.Error("ParseOperator(~) should fail")
	}
}

func TestSpaceShape(t *testing.T) {
	s := space(t)
	// Same-attribute groups: Name, State (string: 2 preds each),
	// Zip, Income, Tax (numeric: 6 preds each).
	wantSame := 2*2 + 3*6
	same := 0
	for _, g := range s.Groups {
		if g.Cross && g.A == g.B {
			same += len(g.Members)
		}
	}
	if same != wantSame {
		t.Errorf("same-attribute predicates = %d, want %d", same, wantSame)
	}
	// Income/Tax share <30% of values in Table 1, Name/State also don't
	// overlap 30%; with this small table the cross-column groups depend
	// on actual overlap. Just check structural invariants.
	for _, g := range s.Groups {
		if !g.Cross && g.A == g.B {
			t.Error("single-tuple group over the same attribute")
		}
		want := 2
		if g.Numeric {
			want = 6
		}
		if len(g.Members) != want {
			t.Errorf("group (%d,%d) has %d members, want %d", g.A, g.B, len(g.Members), want)
		}
	}
}

func TestComplementLinks(t *testing.T) {
	s := space(t)
	for id := 0; id < s.Size(); id++ {
		comp := s.Complement(id)
		if comp < 0 {
			t.Fatalf("predicate %d has no complement", id)
		}
		if s.Complement(comp) != id {
			t.Fatalf("complement not involutive for %d", id)
		}
		p, q := s.Preds[id], s.Preds[comp]
		if p.A != q.A || p.B != q.B || p.Cross != q.Cross {
			t.Fatalf("complement of %d changes attributes", id)
		}
		if q.Op != p.Op.Complement() {
			t.Fatalf("complement of %d has wrong operator", id)
		}
	}
}

func TestEvalMatchesComplementOnPairs(t *testing.T) {
	s := space(t)
	n := s.Rel.NumRows()
	for id := 0; id < s.Size(); id++ {
		comp := s.Complement(id)
		for i := 0; i < n; i += 3 {
			for j := 0; j < n; j += 4 {
				if s.Eval(id, i, j) == s.Eval(comp, i, j) {
					t.Fatalf("pred %d (%s) and complement agree on (%d,%d)",
						id, s.String(id), i, j)
				}
			}
		}
	}
}

func TestExample31SatSet(t *testing.T) {
	// Example 3.1: Sat(t2, t5) contains Name != Name', Income > Income',
	// Income >= Income'; Sat(t5, t2) contains Name != and Income <, <=.
	s := space(t)
	type want struct {
		spec predicate.Spec
		i, j int
		sat  bool
	}
	cases := []want{
		{predicate.Spec{A: "Name", B: "Name", Op: predicate.Neq, Cross: true}, 1, 4, true},
		{predicate.Spec{A: "Income", B: "Income", Op: predicate.Gt, Cross: true}, 1, 4, true},
		{predicate.Spec{A: "Income", B: "Income", Op: predicate.Geq, Cross: true}, 1, 4, true},
		{predicate.Spec{A: "Income", B: "Income", Op: predicate.Gt, Cross: true}, 4, 1, false},
		{predicate.Spec{A: "Income", B: "Income", Op: predicate.Lt, Cross: true}, 4, 1, true},
		{predicate.Spec{A: "Income", B: "Income", Op: predicate.Leq, Cross: true}, 4, 1, true},
	}
	for _, c := range cases {
		id := s.Lookup(c.spec)
		if id < 0 {
			t.Fatalf("predicate %v not in space", c.spec)
		}
		if got := s.Eval(id, c.i, c.j); got != c.sat {
			t.Errorf("Eval(%v, t%d, t%d) = %v, want %v", c.spec, c.i+1, c.j+1, got, c.sat)
		}
	}
}

func TestLookupMirroredSingleTuple(t *testing.T) {
	rel := dataset.MustNewRelation("r", []*dataset.Column{
		dataset.NewIntColumn("High", []int64{5, 1, 7}),
		dataset.NewIntColumn("Low", []int64{1, 2, 6}),
	})
	s := predicate.Build(rel, predicate.DefaultOptions())
	// Space stores t.High ρ t.Low; lookup of t.Low > t.High must find
	// the mirrored t.High < t.Low.
	id := s.Lookup(predicate.Spec{A: "Low", B: "High", Op: predicate.Gt, Cross: false})
	if id < 0 {
		t.Fatal("mirrored single-tuple lookup failed")
	}
	sp := s.Spec(id)
	if sp.A != "High" || sp.Op != predicate.Lt {
		t.Errorf("mirrored lookup resolved to %v", sp)
	}
	// Row 1 has Low > High.
	if s.Eval(id, 1, 2) != true {
		t.Error("single-tuple predicate must evaluate on the first tuple only")
	}
	if s.Eval(id, 0, 1) != false {
		t.Error("row 0 does not satisfy High < Low")
	}
}

func TestThirtyPercentRule(t *testing.T) {
	// age and zip share no values: no cross group between them.
	rel := dataset.MustNewRelation("r", []*dataset.Column{
		dataset.NewIntColumn("age", []int64{30, 40, 50}),
		dataset.NewIntColumn("zip", []int64{11111, 22222, 33333}),
		dataset.NewIntColumn("age2", []int64{30, 40, 99}),
	})
	s := predicate.Build(rel, predicate.DefaultOptions())
	a, z, a2 := rel.ColumnIndex("age"), rel.ColumnIndex("zip"), rel.ColumnIndex("age2")
	for _, g := range s.Groups {
		if g.A != g.B && ((g.A == a && g.B == z) || (g.A == z && g.B == a)) {
			t.Errorf("age/zip group should be excluded by the 30%% rule (cross=%v)", g.Cross)
		}
	}
	// age and age2 share 2/3 of values: must be comparable.
	found := false
	for _, g := range s.Groups {
		if g.Cross && g.A == a && g.B == a2 {
			found = true
		}
	}
	if !found {
		t.Error("age/age2 cross group missing despite 66% shared values")
	}
}

// bruteComparable is the 30% rule by brute force: the larger, over the
// two directions, of the fraction of rows whose value some row of the
// other column equals under EqualCross (numbers as numbers, strings as
// strings).
func bruteComparable(a, b *dataset.Column, minShared float64) bool {
	if a.Type.Numeric() != b.Type.Numeric() {
		return false
	}
	frac := func(x, y *dataset.Column) float64 {
		if x.Len() == 0 {
			return 0
		}
		hits := 0
		for i := 0; i < x.Len(); i++ {
			for j := 0; j < y.Len(); j++ {
				if x.EqualCross(i, y, j) {
					hits++
					break
				}
			}
		}
		return float64(hits) / float64(x.Len())
	}
	return max(frac(a, b), frac(b, a)) >= minShared
}

// checkGroupsBrute compares Build's groups, in order, with the ones the
// default options give when the brute-force rule decides comparability.
func checkGroupsBrute(t *testing.T, name string, rel *dataset.Relation) *predicate.Space {
	t.Helper()
	opts := predicate.DefaultOptions()
	type key struct {
		a, b  int
		cross bool
	}
	var want []key
	cols := rel.Columns
	for a := range cols {
		want = append(want, key{a, a, true})
	}
	for a := range cols {
		for b := range cols {
			if a == b || !bruteComparable(cols[a], cols[b], opts.MinShared) {
				continue
			}
			want = append(want, key{a, b, true})
			if a < b {
				want = append(want, key{a, b, false})
			}
		}
	}
	s := predicate.Build(rel, opts)
	var got []key
	for _, g := range s.Groups {
		got = append(got, key{g.A, g.B, g.Cross})
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: groups %v, want %v", name, got, want)
	}
	return s
}

// TestThirtyPercentRuleBruteForce checks the per-column value counts
// behind the 30% rule against a brute-force rule on every generator,
// and on columns where NaN, −0 and mixed Int/Float values decide it.
func TestThirtyPercentRuleBruteForce(t *testing.T) {
	for _, name := range datagen.Names() {
		d, err := datagen.ByName(name, 60, 3)
		if err != nil {
			t.Fatal(err)
		}
		checkGroupsBrute(t, name, d.Rel)
	}

	nan, negZero := math.NaN(), math.Copysign(0, -1)
	rel := dataset.MustNewRelation("edge", []*dataset.Column{
		dataset.NewFloatColumn("nanA", []float64{nan, nan, nan, nan, nan, 1}),
		dataset.NewFloatColumn("nanB", []float64{nan, nan, nan, nan, nan, 2}),
		dataset.NewFloatColumn("negZero", []float64{negZero, negZero, 11, 12, 13, 14}),
		dataset.NewIntColumn("zero", []int64{0, 0, 0, 21, 22, 23}),
		dataset.NewIntColumn("ints", []int64{31, 32, 33, 34, 35, 36}),
		dataset.NewFloatColumn("floats", []float64{31, 32, 32.5, 33.5, 34.5, 35.5}),
		dataset.NewStringColumn("text", []string{"31", "32", "33", "34", "35", "36"}),
		dataset.NewStringColumn("text2", []string{"31", "31", "x", "y", "z", "w"}),
	})
	s := checkGroupsBrute(t, "edge", rel)
	cross := map[[2]string]bool{}
	for _, g := range s.Groups {
		if g.Cross && g.A != g.B {
			cross[[2]string{rel.Columns[g.A].Name, rel.Columns[g.B].Name}] = true
		}
	}
	for pair, want := range map[[2]string]bool{
		{"nanA", "nanB"}:    false, // NaN equals no NaN
		{"negZero", "zero"}: true,  // −0 equals the Int 0
		{"ints", "floats"}:  true,  // Int and Float compare as numbers
		{"ints", "text"}:    false, // numbers never meet strings
		{"text", "text2"}:   true,  // 2 of text2's 6 rows occur in text
	} {
		if cross[pair] != want {
			t.Errorf("%s/%s comparable = %v, want %v", pair[0], pair[1], cross[pair], want)
		}
	}
}

func TestDCFromSpecsAndViolations(t *testing.T) {
	s := space(t)
	phi1, err := predicate.FromSpecs(s, datagen.Phi1())
	if err != nil {
		t.Fatal(err)
	}
	// Example 1.2: two of 210 ordered pairs violate ϕ1.
	if got := phi1.CountViolations(); got != 2 {
		t.Errorf("ϕ1 violations = %d, want 2", got)
	}
	phi2, err := predicate.FromSpecs(s, datagen.Phi2())
	if err != nil {
		t.Fatal(err)
	}
	// Example 1.2: sixteen of 210 ordered pairs violate ϕ2.
	if got := phi2.CountViolations(); got != 16 {
		t.Errorf("ϕ2 violations = %d, want 16", got)
	}
	pairs := phi2.ViolatingPairs()
	if len(pairs) != 16 {
		t.Fatalf("ViolatingPairs = %d, want 16", len(pairs))
	}
	// Every violating pair of ϕ2 involves t15 (index 14).
	for _, p := range pairs {
		if p[0] != 14 && p[1] != 14 {
			t.Errorf("violating pair %v does not involve t15", p)
		}
	}
}

func TestDCHittingSetRoundTrip(t *testing.T) {
	s := space(t)
	dc, err := predicate.FromSpecs(s, datagen.Phi1())
	if err != nil {
		t.Fatal(err)
	}
	hs := dc.HittingSet()
	back := predicate.FromHittingSet(s, hs)
	if back.Canonical() != dc.Canonical() {
		t.Errorf("round trip changed DC: %s vs %s", back, dc)
	}
	if hs.Count() != dc.Size() {
		t.Errorf("hitting set size = %d, want %d", hs.Count(), dc.Size())
	}
}

func TestDCStringForms(t *testing.T) {
	s := space(t)
	dc, err := predicate.FromSpecs(s, datagen.Phi2())
	if err != nil {
		t.Fatal(err)
	}
	want := "not(t.State != t'.State and t.Zip = t'.Zip)"
	if got := dc.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if dc.Canonical() != datagen.Phi2().Canonical() {
		t.Error("DC and DCSpec canonical forms disagree")
	}
}

func TestSatisfiedByAgreesWithHittingSemantics(t *testing.T) {
	s := space(t)
	dc, err := predicate.FromSpecs(s, datagen.Phi1())
	if err != nil {
		t.Fatal(err)
	}
	hs := dc.HittingSet()
	n := s.Rel.NumRows()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			sat := bitset.New(s.Size())
			for id := 0; id < s.Size(); id++ {
				if s.Eval(id, i, j) {
					sat.Set(id)
				}
			}
			if dc.SatisfiedBy(i, j) != sat.Intersects(hs) {
				t.Fatalf("pair (%d,%d): SatisfiedBy disagrees with hitting-set semantics", i, j)
			}
		}
	}
}

func TestGroupMembersShareAttributePair(t *testing.T) {
	s := space(t)
	for id := 0; id < s.Size(); id++ {
		p := s.Preds[id]
		for _, m := range s.GroupMembers(id) {
			q := s.Preds[m]
			if q.A != p.A || q.B != p.B || q.Cross != p.Cross {
				t.Fatalf("group member %d of %d differs beyond operator", m, id)
			}
		}
		if g := s.GroupOf(id); g.ByOp[p.Op] != id {
			t.Fatalf("GroupOf(%d).ByOp broken", id)
		}
	}
}
