package searchmc_test

import (
	"math/rand"
	"testing"

	"adc/internal/approx"
	"adc/internal/bitset"
	"adc/internal/datagen"
	"adc/internal/evidence"
	"adc/internal/hitset"
	"adc/internal/predicate"
	"adc/internal/searchmc"
)

func randomInstance(r *rand.Rand) *evidence.Set {
	universe := 4 + r.Intn(7)
	nsets := 1 + r.Intn(8)
	var sets []bitset.Bits
	var counts []int64
	var total int64
	seen := map[string]bool{}
	for k := 0; k < nsets; k++ {
		b := bitset.New(universe)
		for n := 1 + r.Intn(3); n > 0; n-- {
			b.Set(r.Intn(universe))
		}
		if seen[b.Key()] {
			continue
		}
		seen[b.Key()] = true
		c := int64(1 + r.Intn(3))
		sets = append(sets, b)
		counts = append(counts, c)
		total += c
	}
	return evidence.FromSets(sets, counts, 0, total)
}

func keysOf(run func(emit func(bitset.Bits))) map[string]bool {
	out := map[string]bool{}
	run(func(hs bitset.Bits) { out[hs.Key()] = true })
	return out
}

// TestAgreesWithADCEnum checks that the baseline enumerates exactly the
// same minimal approximate covers as ADCEnum — the two algorithms differ
// in search strategy and pruning, not in output (Section 8.2 compares
// their running times on identical tasks).
func TestAgreesWithADCEnum(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for trial := 0; trial < 120; trial++ {
		ev := randomInstance(r)
		for _, eps := range []float64{0, 0.1, 0.3} {
			want := keysOf(func(emit func(bitset.Bits)) {
				hitset.EnumerateADC(ev, hitset.Options{Func: approx.F1{}, Epsilon: eps},
					func(hs bitset.Bits) { emit(hs.Clone()) })
			})
			got := keysOf(func(emit func(bitset.Bits)) {
				searchmc.Search(ev, searchmc.Options{Func: approx.F1{}, Epsilon: eps}, emit)
			})
			if len(got) != len(want) {
				t.Fatalf("trial %d eps %v: SearchMC %d covers, ADCEnum %d",
					trial, eps, len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("trial %d eps %v: cover missing from SearchMC", trial, eps)
				}
			}
		}
	}
}

func TestRunningExampleAgreement(t *testing.T) {
	rel := datagen.RunningExample()
	space := predicate.Build(rel, predicate.DefaultOptions())
	ev, err := evidence.ClusterBuilder{}.Build(space, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.01, 0.05} {
		want := keysOf(func(emit func(bitset.Bits)) {
			hitset.EnumerateADC(ev, hitset.Options{Func: approx.F1{}, Epsilon: eps},
				func(hs bitset.Bits) { emit(hs.Clone()) })
		})
		got := keysOf(func(emit func(bitset.Bits)) {
			searchmc.Search(ev, searchmc.Options{Func: approx.F1{}, Epsilon: eps}, emit)
		})
		if len(got) != len(want) {
			t.Fatalf("eps %v: SearchMC %d covers, ADCEnum %d", eps, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("eps %v: cover missing from SearchMC", eps)
			}
		}
	}
}

func TestOutputsAreMinimal(t *testing.T) {
	rel := datagen.RunningExample()
	space := predicate.Build(rel, predicate.DefaultOptions())
	ev, err := evidence.ClusterBuilder{}.Build(space, false)
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.02
	searchmc.Search(ev, searchmc.Options{Func: approx.F1{}, Epsilon: eps},
		func(hs bitset.Bits) {
			hs.ForEach(func(e int) {
				smaller := hs.Clone()
				smaller.Clear(e)
				if l := approx.LossOfHittingSet(approx.F1{}, ev, smaller); l <= eps {
					t.Errorf("non-minimal cover emitted: %v", hs)
				}
			})
		})
}

func TestMaxPredicates(t *testing.T) {
	rel := datagen.RunningExample()
	space := predicate.Build(rel, predicate.DefaultOptions())
	ev, err := evidence.ClusterBuilder{}.Build(space, false)
	if err != nil {
		t.Fatal(err)
	}
	searchmc.Search(ev, searchmc.Options{Func: approx.F1{}, Epsilon: 0.01, MaxPredicates: 2},
		func(hs bitset.Bits) {
			if hs.Count() > 2 {
				t.Fatalf("cover of size %d exceeds cap", hs.Count())
			}
		})
}

func TestStats(t *testing.T) {
	ev := randomInstance(rand.New(rand.NewSource(9)))
	var n int64
	stats := searchmc.Search(ev, searchmc.Options{Func: approx.F1{}, Epsilon: 0.1},
		func(bitset.Bits) { n++ })
	if stats.Outputs != n {
		t.Errorf("Outputs = %d, emitted %d", stats.Outputs, n)
	}
	if stats.Nodes == 0 || stats.LossEvals == 0 {
		t.Error("stats not accounted")
	}
}
