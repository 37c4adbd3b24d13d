package hitset_test

import (
	"math/rand"
	"testing"

	"adc/internal/approx"
	"adc/internal/bitset"
	"adc/internal/hitset"
	"adc/internal/searchmc"
)

// FuzzEnumAgree is the cross-enumerator equivalence property, mirroring
// the evidence package's FuzzBuildersAgree: on any random evidence set,
// threshold, and approximation function, the sequential ADCEnum, the
// parallel ADCEnum at 1, 2, and 8 workers, and the SearchMC baseline
// must emit exactly the same set of minimal approximate covers — and
// the parallel runs must report the same Stats as the sequential one.
// A negative seed draws heavy multiplicities, up to 2^59, which reach
// the high planes of the weight index. The seed corpus (in-code seeds
// plus testdata/fuzz, where the seed_heavy_* entries are heavy) runs on
// every plain `go test`; `go test -fuzz=FuzzEnumAgree` explores further.
func FuzzEnumAgree(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed, byte(seed*31))
	}
	f.Add(int64(77), byte(0x0f)) // f3, mid epsilon
	f.Add(int64(78), byte(0x05)) // f1-adjusted, zero epsilon instance
	f.Fuzz(func(t *testing.T, seed int64, shape byte) {
		r := rand.New(rand.NewSource(seed))
		ev, _ := randomVioInstance(r, seed < 0)
		fn := fuzzFuncs[int(shape>>2)%len(fuzzFuncs)]
		eps := []float64{0, 0.05, 0.15, 0.35}[shape&3]

		opts := hitset.Options{Func: fn, Epsilon: eps, Workers: 1}
		want, wantStats := enumKeys(ev, opts)

		for _, workers := range []int{1, 2, 8} {
			got, gotStats := parallelKeys(ev, opts, workers)
			if !sameKeys(got, want) {
				t.Fatalf("%s eps %v workers %d: parallel emitted %d covers, serial %d",
					fn.Name(), eps, workers, len(got), len(want))
			}
			if gotStats != wantStats {
				t.Fatalf("%s eps %v workers %d: parallel stats %+v, serial %+v",
					fn.Name(), eps, workers, gotStats, wantStats)
			}
		}

		// SearchMC agreement needs a monotone loss: both algorithms prune
		// assuming a superset of uncovered sets never loses less. Greedy
		// f3 violates that (a concentrated violation set can shrink the
		// greedy repair), so the two strategies may legitimately prune
		// differently under it; the serial-vs-parallel identity above
		// holds regardless, because a copied node makes the same
		// decisions as the original.
		if _, isF3 := fn.(approx.GreedyF3); isF3 {
			return
		}
		mc := map[string]bool{}
		searchmc.Search(ev, searchmc.Options{Func: fn, Epsilon: eps},
			func(hs bitset.Bits) { mc[hs.Key()] = true })
		if !sameKeys(mc, want) {
			t.Fatalf("%s eps %v: SearchMC emitted %d covers, ADCEnum %d",
				fn.Name(), eps, len(mc), len(want))
		}
	})
}
