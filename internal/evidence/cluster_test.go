package evidence_test

import (
	"math/rand"
	"runtime"
	"testing"

	"adc/internal/datagen"
	"adc/internal/dataset"
	"adc/internal/evidence"
	"adc/internal/predicate"
)

// viosMultiset canonicalizes the per-tuple participation counts keyed
// by bitset image, for order-independent comparison.
func viosMultiset(t *testing.T, s *evidence.Set) map[string]map[int32]int64 {
	t.Helper()
	out := make(map[string]map[int32]int64, s.Distinct())
	for k, ev := range s.Sets {
		key := ev.Key()
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate distinct set in evidence output")
		}
		out[key] = s.Vios[k]
	}
	return out
}

func requireSameEvidence(t *testing.T, want, got *evidence.Set, withVios bool) {
	t.Helper()
	if want.TotalPairs != got.TotalPairs {
		t.Fatalf("TotalPairs = %d, want %d", got.TotalPairs, want.TotalPairs)
	}
	if want.NumRows != got.NumRows {
		t.Fatalf("NumRows = %d, want %d", got.NumRows, want.NumRows)
	}
	wm, gm := asMultiset(want), asMultiset(got)
	if len(wm) != len(gm) {
		t.Fatalf("distinct sets differ: want %d, got %d", len(wm), len(gm))
	}
	for k, c := range wm {
		if gm[k] != c {
			t.Fatalf("multiplicity mismatch: want %d, got %d", c, gm[k])
		}
	}
	if !withVios {
		return
	}
	wv, gv := viosMultiset(t, want), viosMultiset(t, got)
	for k, wantMap := range wv {
		gotMap := gv[k]
		if len(gotMap) != len(wantMap) {
			t.Fatalf("vios tuple count differs: want %d, got %d", len(wantMap), len(gotMap))
		}
		for tuple, c := range wantMap {
			if gotMap[tuple] != c {
				t.Fatalf("vios[%d] = %d, want %d", tuple, gotMap[tuple], c)
			}
		}
	}
}

func TestClusterMatchesNaiveOnRunningExample(t *testing.T) {
	rel := datagen.RunningExample()
	space := predicate.Build(rel, predicate.DefaultOptions())
	naive, err := evidence.NaiveBuilder{}.Build(space, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 3, 7} {
		cluster, err := evidence.ClusterBuilder{Workers: workers}.Build(space, true)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireSameEvidence(t, naive, cluster, true)
	}
}

func TestClusterTileSizes(t *testing.T) {
	rel := datagen.RunningExample()
	space := predicate.Build(rel, predicate.DefaultOptions())
	naive, err := evidence.NaiveBuilder{}.Build(space, false)
	if err != nil {
		t.Fatal(err)
	}
	// Tile edges below, at, and above the row count exercise partial
	// tiles and the diagonal in every position.
	for _, tile := range []int{1, 2, 3, 5, 16, 1024} {
		cluster, err := evidence.ClusterBuilder{TileSize: tile, Workers: 2}.Build(space, false)
		if err != nil {
			t.Fatalf("tile=%d: %v", tile, err)
		}
		requireSameEvidence(t, naive, cluster, false)
	}
}

// TestAutoMatchesNaive covers the zero value's worker rule on both
// sides of its threshold: the running example's few super-rows run on
// one worker, stock at 300 rows (near-unique rows, over 2^16 super-row
// pairs) on GOMAXPROCS. For a fixed worker count the distinct-set order
// is deterministic, so matching the explicit count's order pins the
// rule's choice.
func TestAutoMatchesNaive(t *testing.T) {
	stock, err := datagen.ByName("stock", 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		rel     *dataset.Relation
		workers int
	}{
		{datagen.RunningExample(), 1},
		{stock.Rel, runtime.GOMAXPROCS(0)},
	} {
		space := predicate.Build(tc.rel, predicate.DefaultOptions())
		naive, err := evidence.NaiveBuilder{}.Build(space, true)
		if err != nil {
			t.Fatal(err)
		}
		auto, err := evidence.ClusterBuilder{}.Build(space, true)
		if err != nil {
			t.Fatal(err)
		}
		requireSameEvidence(t, naive, auto, true)
		explicit, err := evidence.ClusterBuilder{Workers: tc.workers}.Build(space, false)
		if err != nil {
			t.Fatal(err)
		}
		if explicit.Distinct() != auto.Distinct() {
			t.Fatalf("%s: distinct sets %d, want %d", tc.rel.Name, auto.Distinct(), explicit.Distinct())
		}
		for k := range explicit.Sets {
			if !explicit.Sets[k].Equal(auto.Sets[k]) {
				t.Fatalf("%s: zero value's set order differs from Workers: %d at %d", tc.rel.Name, tc.workers, k)
			}
		}
	}
}

// TestClusterAllRowsIdentical exercises total collapse: one super-row,
// a single distinct evidence set with multiplicity n(n-1).
func TestClusterAllRowsIdentical(t *testing.T) {
	n := 9
	names := make([]string, n)
	vals := make([]int64, n)
	for i := range names {
		names[i] = "same"
		vals[i] = 7
	}
	rel := dataset.MustNewRelation("uniform", []*dataset.Column{
		dataset.NewStringColumn("s", names),
		dataset.NewIntColumn("x", vals),
	})
	space := predicate.Build(rel, predicate.DefaultOptions())
	set, err := evidence.ClusterBuilder{}.Build(space, true)
	if err != nil {
		t.Fatal(err)
	}
	if set.Distinct() != 1 {
		t.Fatalf("distinct sets = %d, want 1", set.Distinct())
	}
	if got, want := set.CountOf(0), int64(n*(n-1)); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	naive, err := evidence.NaiveBuilder{}.Build(space, true)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEvidence(t, naive, set, true)
}

// TestClusterAllRowsDistinct exercises the no-compression path (every
// signature unique).
func TestClusterAllRowsDistinct(t *testing.T) {
	n := 23
	vals := make([]float64, n)
	ids := make([]int64, n)
	for i := range vals {
		vals[i] = float64(i) * 1.5
		ids[i] = int64(n - i)
	}
	rel := dataset.MustNewRelation("unique", []*dataset.Column{
		dataset.NewFloatColumn("v", vals),
		dataset.NewIntColumn("id", ids),
	})
	space := predicate.Build(rel, predicate.DefaultOptions())
	naive, err := evidence.NaiveBuilder{}.Build(space, true)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := evidence.ClusterBuilder{Workers: 3}.Build(space, true)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEvidence(t, naive, cluster, true)
}

func TestClusterTooFewRows(t *testing.T) {
	rel := dataset.MustNewRelation("r", []*dataset.Column{
		dataset.NewIntColumn("a", []int64{1}),
	})
	space := predicate.Build(rel, predicate.DefaultOptions())
	for _, workers := range []int{0, 1, 4} {
		if _, err := (evidence.ClusterBuilder{Workers: workers}).Build(space, false); err == nil {
			t.Errorf("workers=%d: want error on single-row relation", workers)
		}
	}
}

// TestClusterDeterministicOrder pins the stronger property the builder
// documents: for a fixed worker count, repeated builds produce the
// distinct sets in the same order, not just the same multiset.
func TestClusterDeterministicOrder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rel := randomRelation(r)
	space := predicate.Build(rel, predicate.DefaultOptions())
	first, err := evidence.ClusterBuilder{Workers: 4, TileSize: 2}.Build(space, false)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		again, err := evidence.ClusterBuilder{Workers: 4, TileSize: 2}.Build(space, false)
		if err != nil {
			t.Fatal(err)
		}
		if again.Distinct() != first.Distinct() {
			t.Fatal("distinct count changed between runs")
		}
		for k := range first.Sets {
			if !first.Sets[k].Equal(again.Sets[k]) || first.Counts[k] != again.Counts[k] {
				t.Fatalf("order or counts changed between runs at %d", k)
			}
		}
	}
}

func TestQuickClusterAgreesWithNaive(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		rel := randomRelation(r)
		space := predicate.Build(rel, predicate.DefaultOptions())
		naive, err := evidence.NaiveBuilder{}.Build(space, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		workers := 1 + r.Intn(5)
		tile := 1 + r.Intn(12)
		cluster, err := evidence.ClusterBuilder{Workers: workers, TileSize: tile}.Build(space, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		requireSameEvidence(t, naive, cluster, true)
	}
}
