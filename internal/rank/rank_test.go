package rank_test

import (
	"math"
	"testing"

	"adc/internal/datagen"
	"adc/internal/evidence"
	"adc/internal/predicate"
	"adc/internal/rank"
)

func fixture(t *testing.T) (*predicate.Space, *evidence.Set) {
	t.Helper()
	rel := datagen.RunningExample()
	space := predicate.Build(rel, predicate.DefaultOptions())
	ev, err := evidence.ClusterBuilder{}.Build(space, false)
	if err != nil {
		t.Fatal(err)
	}
	return space, ev
}

func TestCoverageBounds(t *testing.T) {
	space, ev := fixture(t)
	phi1, err := predicate.FromSpecs(space, datagen.Phi1())
	if err != nil {
		t.Fatal(err)
	}
	c := rank.Coverage(ev, phi1)
	if c <= 0 || c > 1 {
		t.Fatalf("coverage = %v, want (0, 1]", c)
	}
	// The DC not(Zip = Zip' ∧ Zip ≠ Zip') has exactly one of its two
	// complement predicates satisfied by every pair: coverage is
	// exactly 1/2.
	half, err := predicate.FromSpecs(space, predicate.DCSpec{
		{A: "Zip", B: "Zip", Op: predicate.Eq, Cross: true},
		{A: "Zip", B: "Zip", Op: predicate.Neq, Cross: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fc := rank.Coverage(ev, half); math.Abs(fc-0.5) > 1e-15 {
		t.Errorf("coverage = %v, want exactly 0.5", fc)
	}
}

func TestCoverageDegenerate(t *testing.T) {
	space, ev := fixture(t)
	empty := predicate.DC{Space: space}
	if got := rank.Coverage(ev, empty); got != 0 {
		t.Errorf("coverage of empty DC = %v, want 0", got)
	}
}

func TestRankOrdering(t *testing.T) {
	space, ev := fixture(t)
	phi1, _ := predicate.FromSpecs(space, datagen.Phi1())
	phi2, _ := predicate.FromSpecs(space, datagen.Phi2())
	scores := rank.Rank(ev, []predicate.DC{phi1, phi2})
	if len(scores) != 2 {
		t.Fatalf("len = %d", len(scores))
	}
	// ϕ2 has two predicates, ϕ1 three: ϕ2's succinctness is 1.
	for _, s := range scores {
		if s.DC.Size() == 2 && s.Succinctness != 1 {
			t.Errorf("shortest DC succinctness = %v, want 1", s.Succinctness)
		}
		if s.DC.Size() == 3 && math.Abs(s.Succinctness-2.0/3.0) > 1e-15 {
			t.Errorf("3-predicate succinctness = %v, want 2/3", s.Succinctness)
		}
		want := 0.5*s.Succinctness + 0.5*s.Coverage
		if math.Abs(s.Interestingness-want) > 1e-15 {
			t.Errorf("interestingness = %v, want %v", s.Interestingness, want)
		}
	}
	if scores[0].Interestingness < scores[1].Interestingness {
		t.Error("ranking not in decreasing interestingness")
	}
}

func TestRankEmpty(t *testing.T) {
	_, ev := fixture(t)
	if got := rank.Rank(ev, nil); got != nil {
		t.Errorf("Rank(nil) = %v", got)
	}
}

func TestRankDeterministicTieBreak(t *testing.T) {
	space, ev := fixture(t)
	phi2, _ := predicate.FromSpecs(space, datagen.Phi2())
	a := rank.Rank(ev, []predicate.DC{phi2, phi2})
	if a[0].DC.Canonical() != a[1].DC.Canonical() {
		t.Error("identical DCs should tie")
	}
}
