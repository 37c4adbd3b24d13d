package violation

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"adc/internal/approx"
	"adc/internal/datagen"
	"adc/internal/dataset"
	"adc/internal/evidence"
	"adc/internal/par"
	"adc/internal/predicate"
)

const eps = 1e-12

// phi2Pairs is every ordered pair between the WA tuples with zip 98112
// (rows 5..12) and Sarah (row 14, IL with zip 98112) — the violations of
// ϕ2 on Table 1, hand-checked against Example 1.2.
func phi2Pairs() [][2]int {
	var out [][2]int
	for w := 5; w <= 12; w++ {
		out = append(out, [2]int{w, 14})
	}
	for w := 5; w <= 12; w++ {
		out = append(out, [2]int{14, w})
	}
	sortPairs(out)
	return out
}

func sortPairs(p [][2]int) {
	for i := 1; i < len(p); i++ {
		for k := i; k > 0 && (p[k][0] < p[k-1][0] || (p[k][0] == p[k-1][0] && p[k][1] < p[k-1][1])); k-- {
			p[k], p[k-1] = p[k-1], p[k]
		}
	}
}

// TestRunningExample checks both execution paths against hand-derived
// violating pairs and losses on the 15-tuple Tax relation of Table 1.
func TestRunningExample(t *testing.T) {
	rel := datagen.RunningExample()
	// ϕ1: within a state, higher income with lower-or-equal tax.
	// Julia (5) vs Jimmy (6): 27000 > 24000 but 1400 ≤ 1600; and
	// Sarah (14) vs Tim (13): 54000 > 39000 but 5000 ≤ 5000.
	phi1Want := [][2]int{{5, 6}, {14, 13}}
	sortPairs(phi1Want)

	cases := []struct {
		name      string
		spec      predicate.DCSpec
		pairs     [][2]int
		f1Num     int64 // violating ordered pairs
		f2Num     int   // tuples involved
		f3Removed int   // greedy repair size
	}{
		{"phi1", datagen.Phi1(), phi1Want, 2, 4, 2},
		// ϕ2: Sarah participates in all 16 ordered pairs, so the greedy
		// repair removes her alone.
		{"phi2", datagen.Phi2(), phi2Pairs(), 16, 9, 1},
	}
	const n = 15
	const totalPairs = n * (n - 1)
	for _, tc := range cases {
		for _, path := range []string{PathAuto, execGrouped, PathScan} {
			res := checkExec(t, rel, tc.spec, path, Options{})
			if !reflect.DeepEqual(res.Pairs, tc.pairs) {
				t.Errorf("%s/%s: pairs = %v, want %v", tc.name, path, res.Pairs, tc.pairs)
			}
			if res.Violations != tc.f1Num {
				t.Errorf("%s/%s: violations = %d, want %d", tc.name, path, res.Violations, tc.f1Num)
			}
			if want := float64(tc.f1Num) / totalPairs; math.Abs(res.LossF1-want) > eps {
				t.Errorf("%s/%s: LossF1 = %v, want %v", tc.name, path, res.LossF1, want)
			}
			if want := float64(tc.f2Num) / n; math.Abs(res.LossF2-want) > eps {
				t.Errorf("%s/%s: LossF2 = %v, want %v", tc.name, path, res.LossF2, want)
			}
			if want := float64(tc.f3Removed) / n; math.Abs(res.LossF3-want) > eps {
				t.Errorf("%s/%s: LossF3 = %v, want %v", tc.name, path, res.LossF3, want)
			}
		}
	}

	// Path selection: both running-example DCs join on selective equality
	// clusters, so auto must choose the PLI path.
	rep, err := Check(rel, []predicate.DCSpec{datagen.Phi1(), datagen.Phi2()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		if res.Path != PathPLI {
			t.Errorf("auto path for %s = %q, want pli", res.Spec, res.Path)
		}
	}
	if rep.Violations != 18 {
		t.Errorf("total violations = %d, want 18", rep.Violations)
	}
	if got := rep.DirtyTuples(); got != 10 {
		// ϕ1 involves {5, 6, 13, 14}, ϕ2 involves {5..12, 14}: union has 10.
		t.Errorf("DirtyTuples = %d, want 10", got)
	}
	// Sarah (14) participates in all 16 ϕ2 pairs plus her ϕ1 pair with Tim.
	if top := rep.TopViolating(1); len(top) != 1 || top[0].Tuple != 14 || top[0].Count != 17 {
		t.Errorf("TopViolating(1) = %v, want tuple 14 with 17", top)
	}
}

// TestLossesMatchApprox cross-checks the checker's f1/f2/f3 losses
// against the evidence-set-based approx package on the running example.
func TestLossesMatchApprox(t *testing.T) {
	rel := datagen.RunningExample()
	rep, err := Check(rel, []predicate.DCSpec{datagen.Phi1(), datagen.Phi2()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	space := predicate.Build(rel, predicate.DefaultOptions())
	ev, err := (evidence.NaiveBuilder{}).Build(space, true)
	if err != nil {
		t.Fatal(err)
	}
	for k, res := range rep.Results {
		// Reference 1: the O(n²·|P|) per-pair evaluation of predicate.DC.
		dc, err := predicate.FromSpecs(space, res.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Violations, dc.CountViolations(); got != want {
			t.Errorf("result %d: violations = %d, reference = %d", k, got, want)
		}
		if got, want := res.Pairs, dc.ViolatingPairs(); !reflect.DeepEqual(got, want) {
			t.Errorf("result %d: pairs = %v, reference = %v", k, got, want)
		}
		// Reference 2: the evidence-set-based losses the miner enumerates
		// with must agree with the checker's direct computation.
		hs := dc.HittingSet()
		for _, ref := range []struct {
			f    approx.Func
			loss float64
		}{
			{approx.F1{}, res.LossF1},
			{approx.F2{}, res.LossF2},
			{approx.GreedyF3{}, res.LossF3},
		} {
			if want := approx.LossOfHittingSet(ref.f, ev, hs); math.Abs(ref.loss-want) > eps {
				t.Errorf("result %d: %s loss = %v, evidence-based = %v",
					k, ref.f.Name(), ref.loss, want)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	rel := datagen.RunningExample()
	specs := []predicate.DCSpec{datagen.Phi1(), datagen.Phi2()}
	// ϕ1 loses 2/210 ≈ 0.0095, ϕ2 16/210 ≈ 0.076 under f1.
	vs, err := Validate(rel, specs, "f1", 0.05, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !vs[0].OK || vs[1].OK {
		t.Errorf("f1@0.05: got OK=%v,%v, want true,false", vs[0].OK, vs[1].OK)
	}
	// Under greedy f3, ϕ2 loses only 1/15 and passes at 0.1; ϕ1 loses
	// 2/15 and fails.
	vs, err = Validate(rel, specs, "f3", 0.1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].OK || !vs[1].OK {
		t.Errorf("f3@0.1: got OK=%v,%v, want false,true", vs[0].OK, vs[1].OK)
	}
	if _, err := Validate(rel, specs, "f9", 0.1, Options{}); err == nil {
		t.Error("unknown approximation function accepted")
	}
	if _, err := Validate(rel, specs, "f1", -1, Options{}); err == nil {
		t.Error("negative epsilon accepted")
	}
	if _, err := Validate(rel, specs, "f1", math.NaN(), Options{}); err == nil {
		t.Error("NaN epsilon accepted")
	}
}

func TestRepairRunningExample(t *testing.T) {
	rel := datagen.RunningExample()
	specs := []predicate.DCSpec{datagen.Phi1(), datagen.Phi2()}
	res, err := Repair(rel, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Sarah (14) covers the ϕ2 conflicts and her ϕ1 conflict with Tim;
	// then Julia (5) or Jimmy (6) covers the last edge (greedy ties break
	// toward the smaller index).
	if want := []int{5, 14}; !reflect.DeepEqual(res.Remove, want) {
		t.Fatalf("Remove = %v, want %v", res.Remove, want)
	}
	if res.Clean.NumRows() != 13 {
		t.Fatalf("Clean has %d rows, want 13", res.Clean.NumRows())
	}
	after, err := Check(res.Clean, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !after.Clean {
		t.Errorf("repaired relation still has %d violations", after.Violations)
	}
}

func TestSingleTupleDC(t *testing.T) {
	rel := dataset.MustNewRelation("bars", []*dataset.Column{
		dataset.NewIntColumn("High", []int64{10, 20, 5, 30}),
		dataset.NewIntColumn("Low", []int64{5, 8, 9, 30}),
	})
	// not(t.High < t.Low): row 2 (5 < 9) is bad; the pair semantics pair
	// it with every other tuple as first tuple.
	spec := predicate.DCSpec{{A: "High", B: "Low", Op: predicate.Lt, Cross: false}}
	want := [][2]int{{2, 0}, {2, 1}, {2, 3}}
	for _, path := range []string{execGrouped, PathScan} {
		res := checkExec(t, rel, spec, path, Options{})
		// No equality to group on and no order predicate to drive: the
		// forced grouped plan pairs all rows, and reports the scan.
		if res.Path != PathScan {
			t.Errorf("path %s: reported %q, want scan fallback", path, res.Path)
		}
		if !reflect.DeepEqual(res.Pairs, want) {
			t.Errorf("path %s: pairs = %v, want %v", path, res.Pairs, want)
		}
	}
}

func TestCrossColumnEqualityJoin(t *testing.T) {
	// not(t.A = t'.B ∧ t.X != t'.X): joinable only via merged codes.
	rel := dataset.MustNewRelation("xcol", []*dataset.Column{
		dataset.NewIntColumn("A", []int64{1, 2, 3, 4}),
		dataset.NewIntColumn("B", []int64{2, 1, 9, 1}),
		dataset.NewStringColumn("X", []string{"u", "u", "v", "w"}),
	})
	spec := predicate.DCSpec{
		{A: "A", B: "B", Op: predicate.Eq, Cross: true},
		{A: "X", B: "X", Op: predicate.Neq, Cross: true},
	}
	// A=1 rows {0}, B=1 rows {1,3}; A=2 rows {1}, B=2 rows {0}.
	// (0,1): X u=u equal, no. (0,3): u != w → violation. (1,0): u=u, no.
	want := [][2]int{{0, 3}}
	for _, path := range []string{PathAuto, execGrouped, PathScan} {
		res := checkExec(t, rel, spec, path, Options{})
		if !reflect.DeepEqual(res.Pairs, want) {
			t.Errorf("path %s: pairs = %v, want %v", path, res.Pairs, want)
		}
		// The forced grouped plan must actually use the cross-column join.
		if path == execGrouped && res.Path != PathPLI {
			t.Errorf("forced grouped plan reported %q", res.Path)
		}
	}
}

func TestMaxPairs(t *testing.T) {
	rel := datagen.RunningExample()
	rep, err := Check(rel, []predicate.DCSpec{datagen.Phi2()}, Options{MaxPairs: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if len(res.Pairs) != 3 || !res.Truncated {
		t.Errorf("got %d pairs (truncated=%v), want 3 truncated", len(res.Pairs), res.Truncated)
	}
	if res.Violations != 16 {
		t.Errorf("Violations = %d, want 16 (counts must stay exact under the cap)", res.Violations)
	}
}

func TestCheckErrors(t *testing.T) {
	rel := datagen.RunningExample()
	cases := []struct {
		name string
		spec predicate.DCSpec
		opts Options
	}{
		{"unknown column", predicate.DCSpec{{A: "Nope", B: "Nope", Op: predicate.Eq, Cross: true}}, Options{}},
		{"order op on strings", predicate.DCSpec{{A: "Name", B: "Name", Op: predicate.Lt, Cross: true}}, Options{}},
		{"cross-kind comparison", predicate.DCSpec{{A: "Name", B: "Zip", Op: predicate.Eq, Cross: true}}, Options{}},
		{"empty DC", predicate.DCSpec{}, Options{}},
		{"bad path", predicate.DCSpec{{A: "Zip", B: "Zip", Op: predicate.Eq, Cross: true}}, Options{Path: "gpu"}},
	}
	for _, tc := range cases {
		if _, err := Check(rel, []predicate.DCSpec{tc.spec}, tc.opts); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if _, err := Check(nil, nil, Options{}); err == nil {
		t.Error("nil relation: no error")
	}
}

// TestValidateListsNoPairs pins that Validate, which returns verdicts
// only, allocates linearly in the rows rather than in the violations,
// on the planner and on the forced scan.
func TestValidateListsNoPairs(t *testing.T) {
	n := 1000
	g := make([]int64, n)
	v := make([]int64, n)
	for i := range g {
		g[i] = int64(i % 2)
		v[i] = int64(i)
	}
	rel := dataset.MustNewRelation("fd", []*dataset.Column{
		dataset.NewIntColumn("G", g),
		dataset.NewIntColumn("V", v),
	})
	specs := []predicate.DCSpec{{
		{A: "G", B: "G", Op: predicate.Eq, Cross: true},
		{A: "V", B: "V", Op: predicate.Neq, Cross: true},
	}}
	for _, path := range []string{PathAuto, PathScan} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		vs, err := Validate(rel, specs, "f1", 0, Options{Path: path, Workers: 2})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if vs[0].Violations < 100_000 {
			t.Fatalf("%s: %d violations; test is vacuous", path, vs[0].Violations)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(256*n) {
			t.Errorf("%s: Validate allocated %d bytes for %d rows", path, alloc, n)
		}
	}
}

// allocBytes returns the bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWorkersClamped pins the cap on a check's worker count, which
// HTTP clients set: every worker of a scan collects into an n-entry
// count array, so an uncapped count would grow a check's memory as
// workers × n. A forced scan asking for 1<<20 workers must report what
// Workers 0 reports and allocate no more than twice what the cap's own
// count allocates.
func TestWorkersClamped(t *testing.T) {
	d, err := datagen.ByName("tax", 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	specs := []predicate.DCSpec{{
		{A: "Zip", B: "Zip", Op: predicate.Eq, Cross: true},
		{A: "State", B: "State", Op: predicate.Neq, Cross: true},
	}}
	check := func(workers int) *Report {
		rep, err := Check(d.Rel, specs, Options{Path: PathScan, Workers: workers, MaxPairs: 10})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want, huge := check(0), check(1<<20)
	if !reflect.DeepEqual(huge, want) {
		t.Fatalf("Workers 1<<20 reports differently from Workers 0")
	}
	limit := par.Clamp(math.MaxInt)
	atLimit := allocBytes(func() { check(limit) })
	atHuge := allocBytes(func() { check(1 << 20) })
	if atHuge > 2*atLimit {
		t.Fatalf("Workers 1<<20 allocated %d bytes, the cap's %d workers %d", atHuge, limit, atLimit)
	}
}
