package violation

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"adc/internal/datagen"
	"adc/internal/dataset"
	"adc/internal/predicate"
)

// TestNaNCrossColumnDifferential is the regression test for the
// MergedRanks NaN bug: sort.SearchFloat64s sent every NaN to the same
// out-of-range rank, so the cross-column PLI join emitted NaN=NaN
// candidate pairs that the scan path's EvalNum correctly refuted — the
// two paths returned different violation sets on NaN-bearing float
// columns. All paths must agree with each other and with the
// O(n²·|P|) reference on a NaN+±0 relation.
func TestNaNCrossColumnDifferential(t *testing.T) {
	nan := math.NaN()
	rel := dataset.MustNewRelation("nanrel", []*dataset.Column{
		dataset.NewFloatColumn("A", []float64{nan, 1, 0, nan, 2}),
		dataset.NewFloatColumn("B", []float64{nan, math.Copysign(0, -1), 3, nan, 1}),
	})
	spec := predicate.DCSpec{{A: "A", B: "B", Op: predicate.Eq, Cross: true}}
	// Hand-derived: A[1]=1 equals B[4]=1 and A[2]=+0 equals B[1]=-0;
	// no NaN occurrence equals anything, itself included.
	want := [][2]int{{1, 4}, {2, 1}}

	for _, path := range []string{PathScan, execGrouped, PathAuto} {
		if got := checkExec(t, rel, spec, path, Options{}).Pairs; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: pairs = %v, want %v", path, got, want)
		}
	}

	// And against the reference evaluator, when the mined space admits
	// the predicate.
	opts := predicate.DefaultOptions()
	opts.MinShared = 0
	space := predicate.Build(rel, opts)
	dc, err := predicate.FromSpecs(space, spec)
	if err != nil {
		t.Fatalf("reference space has no A=B predicate: %v", err)
	}
	if got := dc.ViolatingPairs(); !pairsEqual(got, want) {
		t.Errorf("reference = %v, want %v", got, want)
	}
}

// TestNaNSameAttrPaths covers the same-attribute equality join on a
// NaN column (per-column PLI NaN singletons) plus an order residual:
// NaN rows must pair with nothing under any shape.
func TestNaNSameAttrPaths(t *testing.T) {
	nan := math.NaN()
	rel := dataset.MustNewRelation("nansame", []*dataset.Column{
		dataset.NewFloatColumn("G", []float64{1, 1, nan, nan, 2, 1}),
		dataset.NewFloatColumn("V", []float64{5, 3, 1, 2, 7, nan}),
	})
	spec := predicate.DCSpec{
		{A: "G", B: "G", Op: predicate.Eq, Cross: true},
		{A: "V", B: "V", Op: predicate.Gt, Cross: true},
	}
	// Group {0,1,5} under G=1: V 5>3 gives (0,1); row 5's V is NaN, so
	// it neither dominates nor is dominated.
	want := [][2]int{{0, 1}}
	for _, path := range []string{PathScan, execGrouped, PathAuto} {
		if got := checkExec(t, rel, spec, path, Options{}).Pairs; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: pairs = %v, want %v", path, got, want)
		}
	}
}

// rangeTestRel is a relation where an order-only DC has a selective
// driver: Grade takes few values, so t.Grade > t'.Grade pairs are far
// fewer than n².
func rangeTestRel() *dataset.Relation {
	n := 80
	grade := make([]int64, n)
	score := make([]float64, n)
	for i := 0; i < n; i++ {
		grade[i] = int64(i % 4)
		score[i] = float64((i * 7) % 23)
	}
	return dataset.MustNewRelation("ranges", []*dataset.Column{
		dataset.NewIntColumn("Grade", grade),
		dataset.NewFloatColumn("Score", score),
	})
}

// TestRangePathAgreesAndIsChosen pins the planner's range capability:
// an order-dominated DC, which has no equality to join on, runs as one
// all-rows group narrowed by its driver under the planner — with an
// identical violation set.
func TestRangePathAgreesAndIsChosen(t *testing.T) {
	rel := rangeTestRel()
	spec := predicate.DCSpec{
		{A: "Grade", B: "Grade", Op: predicate.Gt, Cross: true},
		{A: "Score", B: "Score", Op: predicate.Lt, Cross: true},
	}
	var scanPairs [][2]int
	for _, path := range []string{PathScan, execGrouped, PathAuto} {
		res := checkExec(t, rel, spec, path, Options{Workers: 2})
		if res.Violations == 0 {
			t.Fatalf("%s: no violations; test is vacuous", path)
		}
		if path == PathScan {
			scanPairs = res.Pairs
			continue
		}
		if !reflect.DeepEqual(res.Pairs, scanPairs) {
			t.Errorf("%s: pairs differ from scan", path)
		}
		switch path {
		case execGrouped, PathAuto:
			if res.Path != PathRange {
				t.Errorf("%s ran %q, want range", path, res.Path)
			}
			if res.Plan == nil || res.Plan.Shape != ShapeRange {
				t.Fatalf("%s: plan = %+v, want range shape", path, res.Plan)
			}
			if res.Plan.Range == "" || res.Plan.ActualPairs == 0 {
				t.Errorf("%s: incomplete explain %+v", path, res.Plan)
			}
			// The driver must actually examine fewer pairs than the scan.
			if total := int64(rel.NumRows()) * int64(rel.NumRows()-1); res.Plan.ActualPairs >= total {
				t.Errorf("%s: examined %d of %d pairs — no pruning", path, res.Plan.ActualPairs, total)
			}
		}
	}
}

// TestRangeScreenMasked pins the range screen on a masked DC: only the
// 10% of rows with Flag = Zero lead pairs, so the driver's estimate,
// scaled to them, undercuts the scan's pairs (masked rows × (n − 1))
// and the planner runs the all-rows group, examining exactly the pairs
// the forced grouped plan examines. Compared unscaled, the estimate
// sent the DC to the scan.
func TestRangeScreenMasked(t *testing.T) {
	n := 2000
	flag, zero, grade, score := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range n {
		if i%10 != 0 {
			flag[i] = 1
		}
		grade[i] = int64(i % 100)
		score[i] = int64((i*37)%100) + 45 // P(grade > score) ≈ 0.15
	}
	rel := dataset.MustNewRelation("masked", []*dataset.Column{
		dataset.NewIntColumn("Flag", flag),
		dataset.NewIntColumn("Zero", zero),
		dataset.NewIntColumn("Grade", grade),
		dataset.NewIntColumn("Score", score),
	})
	spec, err := predicate.ParseDCSpec("not(t.Flag = t.Zero and t.Grade > t'.Score)")
	if err != nil {
		t.Fatal(err)
	}
	scan := checkExec(t, rel, spec, PathScan, Options{})
	grouped := checkExec(t, rel, spec, execGrouped, Options{})
	auto := checkExec(t, rel, spec, PathAuto, Options{})
	if scan.Violations == 0 {
		t.Fatal("no violations; test is vacuous")
	}
	if auto.Plan.Shape != ShapeRange || auto.Plan.ActualPairs != grouped.Plan.ActualPairs {
		t.Errorf("planner ran %s examining %d pairs; the grouped plan examines %d (scan %d)",
			auto.Plan.Shape, auto.Plan.ActualPairs, grouped.Plan.ActualPairs, scan.Plan.ActualPairs)
	}
	if !reflect.DeepEqual(auto.Pairs, scan.Pairs) || !reflect.DeepEqual(auto.TupleCounts, scan.TupleCounts) {
		t.Error("planner's pairs or tuple counts differ from the scan's")
	}
}

// TestGroupRangePushdown asserts that the eqjoin groups, sorted by
// their driver, match the scan exactly, including NaN driver values on
// both sides, with the groups split across workers.
func TestGroupRangePushdown(t *testing.T) {
	nan := math.NaN()
	n := 40
	g := make([]int64, n)
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		g[i] = int64(i % 3)
		v[i] = float64((i * 11) % 17)
	}
	v[4], v[9], v[20] = nan, nan, nan
	rel := dataset.MustNewRelation("pushdown", []*dataset.Column{
		dataset.NewIntColumn("G", g),
		dataset.NewFloatColumn("V", v),
	})
	spec := predicate.DCSpec{
		{A: "G", B: "G", Op: predicate.Eq, Cross: true},
		{A: "V", B: "V", Op: predicate.Geq, Cross: true},
		{A: "V", B: "V", Op: predicate.Neq, Cross: true},
	}
	scanRep, err := Check(rel, []predicate.DCSpec{spec}, Options{Path: PathScan})
	if err != nil {
		t.Fatal(err)
	}
	s, p := scanRep.Results[0], checkExec(t, rel, spec, execGrouped, Options{Workers: 3})
	if s.Violations == 0 {
		t.Fatal("no violations; test is vacuous")
	}
	if !reflect.DeepEqual(s.Pairs, p.Pairs) || !reflect.DeepEqual(s.TupleCounts, p.TupleCounts) {
		t.Errorf("pushdown join disagrees with scan: %d vs %d pairs", len(p.Pairs), len(s.Pairs))
	}
	if p.Plan == nil || p.Plan.Range == "" {
		t.Errorf("pushdown not engaged: plan %+v", p.Plan)
	}
	// The pushdown must prune: candidates examined below the group
	// pair count.
	if p.Plan.ActualPairs >= s.Plan.ActualPairs {
		t.Errorf("pushdown examined %d pairs, scan %d — no pruning", p.Plan.ActualPairs, s.Plan.ActualPairs)
	}
}

// TestEstimateCountsDriver pins that a grouped plan's estimate is the
// grouping's times its driver's selectivity, as the executor examines
// only the driver's partners: on the tax golden order DC at 20k rows,
// the estimate stays within 1.5x of the pairs examined. Counting the
// groups alone overestimated them 2.28x.
func TestEstimateCountsDriver(t *testing.T) {
	d, err := datagen.ByName("tax", 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	dirty := datagen.AddNoise(d.Rel, datagen.Spread, 0.01, rand.New(rand.NewSource(1)))
	spec, err := predicate.ParseDCSpec("not(t.State = t'.State and t.Salary > t'.Salary and t.Rate < t'.Rate)")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(dirty, []predicate.DCSpec{spec}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl := rep.Results[0].Plan
	if pl.Shape != ShapeEqJoin || pl.Range == "" {
		t.Fatalf("plan %+v, want eqjoin with a driver", pl)
	}
	if ratio := float64(pl.EstPairs) / float64(pl.ActualPairs); ratio > 1.5 || ratio < 1/1.5 {
		t.Errorf("estimated %d pairs, examined %d (%.2fx)", pl.EstPairs, pl.ActualPairs, ratio)
	}
}

// TestPlanExplainShapes pins the explain output per shape.
func TestPlanExplainShapes(t *testing.T) {
	rel := dataset.MustNewRelation("explain", []*dataset.Column{
		dataset.NewStringColumn("Zip", []string{"a", "a", "b", "b", "c"}),
		dataset.NewStringColumn("State", []string{"x", "y", "x", "x", "z"}),
		dataset.NewFloatColumn("Sal", []float64{1, 2, 3, 4, 5}),
		dataset.NewFloatColumn("Tax", []float64{5, 4, 3, 2, 1}),
	})
	cases := []struct {
		spec      predicate.DCSpec
		wantShape string
	}{
		{predicate.DCSpec{
			{A: "Zip", B: "Zip", Op: predicate.Eq, Cross: true},
			{A: "State", B: "State", Op: predicate.Neq, Cross: true},
		}, ShapeEqJoin},
		{predicate.DCSpec{
			{A: "Sal", B: "Sal", Op: predicate.Gt, Cross: true},
			{A: "Tax", B: "Tax", Op: predicate.Lt, Cross: true},
		}, ShapeRange},
		{predicate.DCSpec{
			{A: "State", B: "State", Op: predicate.Neq, Cross: true},
		}, ShapeScan},
	}
	for _, tc := range cases {
		rep, err := Check(rel, []predicate.DCSpec{tc.spec}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pl := rep.Results[0].Plan
		if pl == nil || pl.Shape != tc.wantShape {
			t.Errorf("%s: plan %+v, want shape %s", tc.spec, pl, tc.wantShape)
		}
		if pl != nil && pl.Shape == ShapeEqJoin && (len(pl.JoinCols) == 0 || pl.JoinCols[0] != "Zip") {
			t.Errorf("eqjoin join cols = %v, want [Zip]", pl.JoinCols)
		}
	}
}

// TestCrossJoinChosenByEstimate: with only cross-column equalities the
// join picked from statistics must still agree with the scan.
func TestCrossJoinChosenByEstimate(t *testing.T) {
	rel := dataset.MustNewRelation("xest", []*dataset.Column{
		dataset.NewIntColumn("A", []int64{1, 2, 3, 4, 1, 2}),
		dataset.NewIntColumn("B", []int64{2, 1, 9, 9, 2, 1}),
		dataset.NewIntColumn("C", []int64{7, 7, 7, 7, 7, 7}),
		dataset.NewIntColumn("D", []int64{7, 7, 9, 9, 7, 7}),
	})
	spec := predicate.DCSpec{
		{A: "A", B: "B", Op: predicate.Eq, Cross: true}, // selective
		{A: "C", B: "D", Op: predicate.Eq, Cross: true}, // near-constant
	}
	scanRep, err := Check(rel, []predicate.DCSpec{spec}, Options{Path: PathScan})
	if err != nil {
		t.Fatal(err)
	}
	autoRep, err := Check(rel, []predicate.DCSpec{spec}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, a := scanRep.Results[0], autoRep.Results[0]
	if s.Violations == 0 {
		t.Fatal("no violations; test is vacuous")
	}
	if !reflect.DeepEqual(s.Pairs, a.Pairs) {
		t.Errorf("crossjoin disagrees with scan")
	}
	if a.Plan.Shape != ShapeCrossJoin {
		t.Fatalf("shape = %q, want crossjoin", a.Plan.Shape)
	}
	// The estimate must have steered the join to the selective pair.
	if len(a.Plan.JoinCols) != 1 || !strings.Contains(a.Plan.JoinCols[0], "A=B") {
		t.Errorf("join cols = %v, want the selective A=B", a.Plan.JoinCols)
	}
}

// TestNegativeMaxPairsRejected covers the Options.validate bugfix: a
// negative cap previously slipped past both branches of collector.add
// and degenerated into an unbounded sorted-insertion pair list.
func TestNegativeMaxPairsRejected(t *testing.T) {
	rel := dataset.MustNewRelation("neg", []*dataset.Column{
		dataset.NewIntColumn("A", []int64{1, 1, 2}),
	})
	spec := predicate.DCSpec{{A: "A", B: "A", Op: predicate.Eq, Cross: true}}
	bad := Options{MaxPairs: -1}
	if _, err := Check(rel, []predicate.DCSpec{spec}, bad); err == nil {
		t.Error("Check accepted negative MaxPairs")
	}
	if _, err := Validate(rel, []predicate.DCSpec{spec}, "f1", 0, bad); err == nil {
		t.Error("Validate accepted negative MaxPairs")
	}
	if _, err := NewChecker(rel).Check([]predicate.DCSpec{spec}, bad); err == nil {
		t.Error("Checker.Check accepted negative MaxPairs")
	}
	// Repair overrides MaxPairs to 0, but a caller passing a negative
	// value still deserves the diagnostic... it must at least not hang
	// or mis-report. The override happens before validation, so Repair
	// succeeds; pin that the zero-cap override really applies.
	rr, err := Repair(rel, []predicate.DCSpec{spec}, bad)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if rr.Report.Results[0].Truncated {
		t.Error("Repair ran with a truncating cap")
	}
}

// TestOrderSelExact pins the histogram-merge order selectivities
// against brute force: on NaN/±0-bearing columns, predSel for every
// order operator must equal the exact fraction of ordered pairs
// satisfying the same-column predicate, and be within the diagonal
// slack (n pairs) for cross-column ones.
func TestOrderSelExact(t *testing.T) {
	nan := math.NaN()
	rel := dataset.MustNewRelation("sel", []*dataset.Column{
		dataset.NewFloatColumn("A", []float64{1, nan, math.Copysign(0, -1), 2, 1, 0, nan, 3}),
		dataset.NewFloatColumn("B", []float64{2, 0, nan, 1, 3, 1, 2, nan}),
	})
	c := NewChecker(rel)
	n := rel.NumRows()
	total := float64(n) * float64(n-1)
	for _, ops := range []predicate.Operator{predicate.Lt, predicate.Leq, predicate.Gt, predicate.Geq} {
		for _, pair := range [][2]string{{"A", "A"}, {"B", "B"}, {"A", "B"}} {
			spec := predicate.Spec{A: pair[0], B: pair[1], Op: ops, Cross: true}
			p, err := compileSpec(rel, spec)
			if err != nil {
				t.Fatal(err)
			}
			got := predSel(c.cache, p)
			var sat float64
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i != j && p.eval(i, j) {
						sat++
					}
				}
			}
			want := sat / total
			slack := 0.0
			if pair[0] != pair[1] {
				slack = float64(n) / total
			}
			if got < want-slack || got > want+slack {
				t.Errorf("%s: predSel = %v, exact = %v (slack %v)", spec, got, want, slack)
			}
		}
	}
}

// TestPlanShapeCounters pins the per-shape counters the server's
// /metrics exposes.
func TestPlanShapeCounters(t *testing.T) {
	rel := rangeTestRel()
	c := NewChecker(rel)
	specs := []predicate.DCSpec{
		{{A: "Grade", B: "Grade", Op: predicate.Eq, Cross: true}},
		{{A: "Grade", B: "Grade", Op: predicate.Gt, Cross: true}, {A: "Score", B: "Score", Op: predicate.Lt, Cross: true}},
	}
	if _, err := c.Check(specs, Options{}); err != nil {
		t.Fatal(err)
	}
	shapes := c.PlanShapes()
	if shapes[ShapeRange] != 1 {
		t.Errorf("range count = %d, want 1 (shapes %v)", shapes[ShapeRange], shapes)
	}
	if shapes[ShapeEqJoin]+shapes[ShapeScan] != 1 {
		t.Errorf("eqjoin+scan = %d, want 1 (shapes %v)", shapes[ShapeEqJoin]+shapes[ShapeScan], shapes)
	}
	if _, err := c.Check(specs, Options{Path: PathScan}); err != nil {
		t.Fatal(err)
	}
	if got := c.PlanShapes()[ShapeScan]; got < 2 {
		t.Errorf("scan count = %d, want >= 2", got)
	}
}

// TestWideIntKeys covers Int columns holding values beyond ±2^53, where
// float64 keys merge neighbouring integers: such a column is never a
// join key, range driver or count key, so every executor, capped or
// not, compares it as int64 like the scan does.
func TestWideIntKeys(t *testing.T) {
	rel := dataset.MustNewRelation("wide", []*dataset.Column{
		dataset.NewIntColumn("A", []int64{1<<53 + 1, 1 << 53, 7}),
	})
	cases := []struct {
		spec predicate.DCSpec
		want [][2]int
	}{
		{predicate.DCSpec{{A: "A", B: "A", Op: predicate.Eq, Cross: true}}, nil},
		{predicate.DCSpec{{A: "A", B: "A", Op: predicate.Gt, Cross: true}}, [][2]int{{0, 1}, {0, 2}, {1, 2}}},
	}
	for _, tc := range cases {
		for _, exec := range []string{PathScan, execGrouped, PathAuto} {
			for _, maxPairs := range []int{0, 10} {
				got := checkExec(t, rel, tc.spec, exec, Options{MaxPairs: maxPairs})
				if got.Violations != int64(len(tc.want)) || !pairsEqual(got.Pairs, tc.want) {
					t.Errorf("%s on %s, MaxPairs %d: %d violations, pairs %v; want %v",
						tc.spec, exec, maxPairs, got.Violations, got.Pairs, tc.want)
				}
			}
		}
	}
}
