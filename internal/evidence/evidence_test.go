package evidence_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"adc/internal/datagen"
	"adc/internal/dataset"
	"adc/internal/evidence"
	"adc/internal/predicate"
)

func buildBoth(t *testing.T, rel *dataset.Relation, withVios bool) (naive, cluster *evidence.Set) {
	t.Helper()
	space := predicate.Build(rel, predicate.DefaultOptions())
	n, err := evidence.NaiveBuilder{}.Build(space, withVios)
	if err != nil {
		t.Fatal(err)
	}
	c, err := evidence.ClusterBuilder{}.Build(space, withVios)
	if err != nil {
		t.Fatal(err)
	}
	return n, c
}

// asMultiset turns an evidence set into a canonical map from bitset key
// to count, for builder comparison.
func asMultiset(s *evidence.Set) map[string]int64 {
	m := make(map[string]int64, s.Distinct())
	for k, ev := range s.Sets {
		m[ev.Key()] += s.Counts[k]
	}
	return m
}

func TestBuildersAgreeOnRunningExample(t *testing.T) {
	naive, cluster := buildBoth(t, datagen.RunningExample(), false)
	if naive.TotalPairs != 210 || cluster.TotalPairs != 210 {
		t.Fatalf("TotalPairs = %d/%d, want 210", naive.TotalPairs, cluster.TotalPairs)
	}
	nm, cm := asMultiset(naive), asMultiset(cluster)
	if len(nm) != len(cm) {
		t.Fatalf("distinct sets differ: naive %d, cluster %d", len(nm), len(cm))
	}
	for k, c := range nm {
		if cm[k] != c {
			t.Fatalf("multiplicity mismatch for a distinct evidence set: %d vs %d", c, cm[k])
		}
	}
}

func TestCountsSumToTotalPairs(t *testing.T) {
	naive, cluster := buildBoth(t, datagen.RunningExample(), false)
	for _, s := range []*evidence.Set{naive, cluster} {
		var sum int64
		for k := 0; k < s.Distinct(); k++ {
			sum += s.CountOf(k)
		}
		if sum != s.TotalPairs {
			t.Errorf("counts sum to %d, want %d", sum, s.TotalPairs)
		}
	}
}

func TestViolationCountsMatchPaperExamples(t *testing.T) {
	rel := datagen.RunningExample()
	space := predicate.Build(rel, predicate.DefaultOptions())
	set, err := evidence.ClusterBuilder{}.Build(space, false)
	if err != nil {
		t.Fatal(err)
	}
	phi1, err := predicate.FromSpecs(space, datagen.Phi1())
	if err != nil {
		t.Fatal(err)
	}
	if got := set.ViolationCount(phi1.HittingSet()); got != 2 {
		t.Errorf("ϕ1 violations from evidence = %d, want 2 (Example 1.2)", got)
	}
	phi2, err := predicate.FromSpecs(space, datagen.Phi2())
	if err != nil {
		t.Fatal(err)
	}
	if got := set.ViolationCount(phi2.HittingSet()); got != 16 {
		t.Errorf("ϕ2 violations from evidence = %d, want 16 (Example 1.2)", got)
	}
}

func TestViolationCountAgreesWithDirectCount(t *testing.T) {
	rel := datagen.RunningExample()
	space := predicate.Build(rel, predicate.DefaultOptions())
	set, err := evidence.ClusterBuilder{}.Build(space, false)
	if err != nil {
		t.Fatal(err)
	}
	// Every single-predicate DC: evidence-based count == O(n²) count.
	for id := 0; id < space.Size(); id++ {
		dc := predicate.DC{Space: space, Preds: []int{id}}
		if got, want := set.ViolationCount(dc.HittingSet()), dc.CountViolations(); got != want {
			t.Fatalf("pred %s: evidence count %d, direct count %d", space.String(id), got, want)
		}
	}
}

func TestViosConsistency(t *testing.T) {
	naive, cluster := buildBoth(t, datagen.RunningExample(), true)
	for _, s := range []*evidence.Set{naive, cluster} {
		if !s.HasVios() {
			t.Fatal("vios not built")
		}
		for k := 0; k < s.Distinct(); k++ {
			var sum int64
			for _, c := range s.Vios[k] {
				sum += c
			}
			// Each ordered pair contributes one unit to each endpoint.
			if sum != 2*s.CountOf(k) {
				t.Fatalf("vios sum %d != 2 * count %d for set %d", sum, s.CountOf(k), k)
			}
		}
	}
}

func TestTooFewRows(t *testing.T) {
	rel := dataset.MustNewRelation("r", []*dataset.Column{
		dataset.NewIntColumn("a", []int64{1}),
	})
	space := predicate.Build(rel, predicate.DefaultOptions())
	if _, err := (evidence.NaiveBuilder{}).Build(space, false); err == nil {
		t.Error("naive: want error on single-row relation")
	}
}

// randomRelation builds a small relation with mixed types and heavy
// value collisions so that evidence sets actually dedupe.
func randomRelation(r *rand.Rand) *dataset.Relation {
	n := 2 + r.Intn(18)
	names := make([]string, n)
	ints := make([]int64, n)
	floats := make([]float64, n)
	extra := make([]int64, n)
	letters := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		names[i] = letters[r.Intn(len(letters))]
		ints[i] = int64(r.Intn(4))
		floats[i] = float64(r.Intn(3))
		extra[i] = int64(r.Intn(4))
	}
	return dataset.MustNewRelation("rand", []*dataset.Column{
		dataset.NewStringColumn("s", names),
		dataset.NewIntColumn("x", ints),
		dataset.NewFloatColumn("y", floats),
		dataset.NewIntColumn("z", extra),
	})
}

func TestQuickBuildersAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel := randomRelation(r)
		space := predicate.Build(rel, predicate.DefaultOptions())
		naive, err := evidence.NaiveBuilder{}.Build(space, true)
		if err != nil {
			return false
		}
		cluster, err := evidence.ClusterBuilder{}.Build(space, true)
		if err != nil {
			return false
		}
		nm, cm := asMultiset(naive), asMultiset(cluster)
		if len(nm) != len(cm) {
			return false
		}
		for k, c := range nm {
			if cm[k] != c {
				return false
			}
		}
		return naive.TotalPairs == cluster.TotalPairs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickViolationCountMatchesDirect(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel := randomRelation(r)
		space := predicate.Build(rel, predicate.DefaultOptions())
		set, err := evidence.ClusterBuilder{}.Build(space, false)
		if err != nil {
			return false
		}
		// Random 2-predicate DC.
		for trial := 0; trial < 5; trial++ {
			a, b := r.Intn(space.Size()), r.Intn(space.Size())
			dc := predicate.DC{Space: space, Preds: []int{a, b}}
			if set.ViolationCount(dc.HittingSet()) != dc.CountViolations() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUncovered(t *testing.T) {
	rel := datagen.RunningExample()
	space := predicate.Build(rel, predicate.DefaultOptions())
	set, err := evidence.ClusterBuilder{}.Build(space, false)
	if err != nil {
		t.Fatal(err)
	}
	phi1, _ := predicate.FromSpecs(space, datagen.Phi1())
	hs := phi1.HittingSet()
	unc := set.Uncovered(hs)
	var viol int64
	for _, k := range unc {
		viol += set.CountOf(k)
	}
	if viol != set.ViolationCount(hs) {
		t.Error("Uncovered and ViolationCount disagree")
	}
}

func ExampleSet_ViolationCount() {
	rel := datagen.RunningExample()
	space := predicate.Build(rel, predicate.DefaultOptions())
	set, _ := evidence.ClusterBuilder{}.Build(space, false)
	phi2, _ := predicate.FromSpecs(space, datagen.Phi2())
	fmt.Println(set.ViolationCount(phi2.HittingSet()))
	// Output: 16
}
