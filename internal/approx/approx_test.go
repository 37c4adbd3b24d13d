package approx_test

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"adc/internal/approx"
	"adc/internal/datagen"
	"adc/internal/evidence"
	"adc/internal/predicate"
)

type fixture struct {
	space *predicate.Space
	ev    *evidence.Set
	phi1  predicate.DC
	phi2  predicate.DC
}

func load(t *testing.T) fixture {
	t.Helper()
	rel := datagen.RunningExample()
	space := predicate.Build(rel, predicate.DefaultOptions())
	ev, err := evidence.NaiveBuilder{}.Build(space, true)
	if err != nil {
		t.Fatal(err)
	}
	phi1, err := predicate.FromSpecs(space, datagen.Phi1())
	if err != nil {
		t.Fatal(err)
	}
	phi2, err := predicate.FromSpecs(space, datagen.Phi2())
	if err != nil {
		t.Fatal(err)
	}
	return fixture{space, ev, phi1, phi2}
}

func loss(fx fixture, f approx.Func, dc predicate.DC) float64 {
	return approx.LossOfHittingSet(f, fx.ev, dc.HittingSet())
}

func TestExample12F1(t *testing.T) {
	fx := load(t)
	// ϕ1: 2 of 210 pairs violate (0.95%).
	if got, want := loss(fx, approx.F1{}, fx.phi1), 2.0/210.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("f1 loss(ϕ1) = %v, want %v", got, want)
	}
	// ϕ2: 16 of 210 pairs violate (7.62%).
	if got, want := loss(fx, approx.F1{}, fx.phi2), 16.0/210.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("f1 loss(ϕ2) = %v, want %v", got, want)
	}
}

func TestExample12GreedyF3(t *testing.T) {
	fx := load(t)
	// ϕ1: two tuples must be removed (one of t6/t7, one of t14/t15): 13.3%.
	if got, want := loss(fx, approx.GreedyF3{}, fx.phi1), 2.0/15.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("f3 loss(ϕ1) = %v, want %v", got, want)
	}
	// ϕ2: removing t15 alone suffices: 6.67%.
	if got, want := loss(fx, approx.GreedyF3{}, fx.phi2), 1.0/15.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("f3 loss(ϕ2) = %v, want %v", got, want)
	}
}

func TestExample12ThresholdDecisions(t *testing.T) {
	fx := load(t)
	// With ε = 5%: ϕ1 is an ADC per f1 but not per f3.
	if !(loss(fx, approx.F1{}, fx.phi1) <= 0.05) {
		t.Error("ϕ1 should be an ADC under f1 at ε=0.05")
	}
	if loss(fx, approx.GreedyF3{}, fx.phi1) <= 0.05 {
		t.Error("ϕ1 should NOT be an ADC under f3 at ε=0.05")
	}
	// With ε = 7%: ϕ2 is an ADC per f3 but not per f1.
	if !(loss(fx, approx.GreedyF3{}, fx.phi2) <= 0.07) {
		t.Error("ϕ2 should be an ADC under f3 at ε=0.07")
	}
	if loss(fx, approx.F1{}, fx.phi2) <= 0.07 {
		t.Error("ϕ2 should NOT be an ADC under f1 at ε=0.07")
	}
}

func TestF2OnRunningExample(t *testing.T) {
	fx := load(t)
	// ϕ1 violations involve t6, t7, t14, t15: loss f2 = 4/15.
	if got, want := loss(fx, approx.F2{}, fx.phi1), 4.0/15.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("f2 loss(ϕ1) = %v, want %v", got, want)
	}
	// ϕ2 violations involve t15 and t6..t13: loss f2 = 9/15.
	if got, want := loss(fx, approx.F2{}, fx.phi2), 9.0/15.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("f2 loss(ϕ2) = %v, want %v", got, want)
	}
}

func TestZeroLossOnSatisfiedDC(t *testing.T) {
	fx := load(t)
	// not(t.Name = t'.Name and t.Income = t'.Income and ...) — build a DC
	// hit by every pair by using all same-attribute inequality complements:
	// simplest: the DC over the full predicate set of a valid constraint.
	// "Zip = Zip' and Zip != Zip'" is violated by no pair: loss must be 0.
	dc, err := predicate.FromSpecs(fx.space, predicate.DCSpec{
		{A: "Zip", B: "Zip", Op: predicate.Eq, Cross: true},
		{A: "Zip", B: "Zip", Op: predicate.Neq, Cross: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []approx.Func{approx.F1{}, approx.F2{}, approx.GreedyF3{}} {
		if got := loss(fx, f, dc); got != 0 {
			t.Errorf("%s loss of unviolable DC = %v, want 0", f.Name(), got)
		}
	}
}

func TestForName(t *testing.T) {
	for name, want := range map[string]string{
		"f1": "f1", "f2": "f2", "f3": "f3-greedy", "f3-greedy": "f3-greedy",
	} {
		f, err := approx.ForName(name)
		if err != nil || f.Name() != want {
			t.Errorf("ForName(%q) = %v, %v", name, f, err)
		}
	}
	if _, err := approx.ForName("f9"); err == nil {
		t.Error("ForName(f9) should fail")
	}
}

func TestNeedsVios(t *testing.T) {
	if (approx.F1{}).NeedsVios() || (approx.F1Adjusted{}).NeedsVios() {
		t.Error("f1 variants must not need vios")
	}
	if !(approx.F2{}).NeedsVios() || !(approx.GreedyF3{}).NeedsVios() {
		t.Error("f2/f3 must need vios")
	}
}

func TestViosPanicMessage(t *testing.T) {
	rel := datagen.RunningExample()
	space := predicate.Build(rel, predicate.DefaultOptions())
	ev, err := evidence.NaiveBuilder{}.Build(space, false) // no vios
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("want panic when f2 runs without vios")
		}
		if !strings.Contains(r.(string), "vios") {
			t.Fatalf("unhelpful panic: %v", r)
		}
	}()
	approx.F2{}.Loss(ev, ev.Uncovered(nil))
}

func TestMonotonicityAxiom(t *testing.T) {
	fx := load(t)
	rng := rand.New(rand.NewSource(11))
	for _, f := range []approx.Func{approx.F1{}, approx.F2{}, approx.F1Adjusted{Z: 1.645}} {
		if err := approx.CheckMonotonic(f, fx.ev, 200, rng); err != nil {
			t.Errorf("%s: %v", f.Name(), err)
		}
	}
}

func TestIndifferenceAxiom(t *testing.T) {
	fx := load(t)
	rng := rand.New(rand.NewSource(12))
	for _, f := range []approx.Func{approx.F1{}, approx.F2{}, approx.GreedyF3{}, approx.F1Adjusted{Z: 1.645}} {
		if err := approx.CheckIndifference(f, fx.ev, 200, rng); err != nil {
			t.Errorf("%s: %v", f.Name(), err)
		}
	}
}

func TestProp53Bridge(t *testing.T) {
	fx := load(t)
	rng := rand.New(rand.NewSource(13))
	if err := approx.CheckProp53(fx.ev, 300, rng); err != nil {
		t.Error(err)
	}
}

func TestF1AdjustedReducesToF1(t *testing.T) {
	fx := load(t)
	// With Z = 0 the adjusted function is exactly f1.
	for _, dc := range []predicate.DC{fx.phi1, fx.phi2} {
		a := loss(fx, approx.F1Adjusted{Z: 0}, dc)
		b := loss(fx, approx.F1{}, dc)
		if a != b {
			t.Errorf("adjusted(Z=0) = %v, f1 = %v", a, b)
		}
		// Positive Z only increases the loss (more conservative).
		c := loss(fx, approx.F1Adjusted{Z: 2}, dc)
		if c < b {
			t.Errorf("adjusted(Z=2) = %v < f1 = %v", c, b)
		}
	}
}

func TestGreedyF3Bounds(t *testing.T) {
	fx := load(t)
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 100; trial++ {
		var preds []int
		for k := 1 + rng.Intn(3); k > 0; k-- {
			preds = append(preds, rng.Intn(fx.space.Size()))
		}
		dc := predicate.DC{Space: fx.space, Preds: preds}
		l := loss(fx, approx.GreedyF3{}, dc)
		if l < 0 || l > 1 {
			t.Fatalf("greedy f3 loss out of range: %v", l)
		}
		// Greedy removal count is at least the violating-tuple lower
		// bound: if any pair violates, at least one tuple must go.
		if fx.ev.ViolationCount(dc.HittingSet()) > 0 && l == 0 {
			t.Fatalf("greedy f3 loss 0 despite violations for %s", dc)
		}
	}
}

// sortedGreedyF3 is Figure 2's greedy by sorting, the reference for
// TupleLoss's selection: the number of involved tuples taken, largest
// count first, until their counts cover u.
func sortedGreedyF3(counts []int64, u int64) int {
	sorted := slices.Clone(counts)
	slices.Sort(sorted)
	var covered int64
	taken := 0
	for k := len(sorted) - 1; k >= 0 && sorted[k] > 0 && covered < u; k-- {
		covered += sorted[k]
		taken++
	}
	return taken
}

// TestGreedyF3Selection checks TupleLoss against the sort-based greedy
// on random multisets of counts: ties from narrow ranges, counts wide
// enough to need several radix digits, uninvolved tuples (count 0),
// and u at 0, 1, random, the counts' total and above it. TupleLoss must
// not write the counts.
func TestGreedyF3Selection(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 2000; trial++ {
		counts := make([]int64, rng.Intn(60))
		width := []int64{1, 3, 200, 1 << 12, 1 << 20, 1 << 40}[rng.Intn(6)]
		var total int64
		for k := range counts {
			if rng.Intn(4) > 0 {
				counts[k] = 1 + rng.Int63n(width)
				total += counts[k]
			}
		}
		orig := slices.Clone(counts)
		rows := len(counts) + rng.Intn(5) + 1
		us := []int64{0, 1, total, total + 1, 2*total + 7}
		if total > 0 {
			us = append(us, 1+rng.Int63n(total), 1+rng.Int63n(total))
		}
		for _, u := range us {
			got := approx.GreedyF3{}.TupleLoss(counts, u, rows)
			want := 0.0
			if u > 0 {
				want = float64(sortedGreedyF3(counts, u)) / float64(rows)
			}
			if got != want {
				t.Fatalf("counts %v, u %d: loss %v, sorted greedy %v", orig, u, got, want)
			}
			if !slices.Equal(counts, orig) {
				t.Fatalf("TupleLoss wrote its counts: %v, was %v", counts, orig)
			}
		}
	}
}
