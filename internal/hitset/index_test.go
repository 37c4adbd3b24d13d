package hitset

import (
	"math/rand"
	"testing"

	"adc/internal/bitset"
	"adc/internal/datagen"
	"adc/internal/evidence"
	"adc/internal/predicate"
)

// weightPerBit is the oracle of index.weightOf: the multiplicities of
// the sets in b, summed one set bit at a time.
func weightPerBit(counts []int64, b bitset.Bits) int64 {
	var sum int64
	b.ForEach(func(k int) { sum += counts[k] })
	return sum
}

// buildOccPerBit is the oracle of buildOcc: one Set call per (set,
// element) pair.
func buildOccPerBit(ev *evidence.Set) []bitset.Bits {
	occ := make([]bitset.Bits, universeSize(ev))
	for e := range occ {
		occ[e] = bitset.New(len(ev.Sets))
	}
	for k, s := range ev.Sets {
		s.ForEach(func(e int) { occ[e].Set(k) })
	}
	return occ
}

// randomCount draws a multiplicity of any bit length up to 63: 2^k − 1,
// 2^k or 2^k + 1 for k from 0 to 62, so 0, 1 and every plane of the
// index come up.
func randomCount(r *rand.Rand) int64 {
	return int64(1)<<r.Intn(63) + int64(r.Intn(3)) - 1
}

// randomRaggedSets draws random sets over elements [0, universe), each
// allocated for a random prefix of the universe that holds its
// elements, so the sets differ in word length as evidence.FromSets
// allows.
func randomRaggedSets(r *rand.Rand, universe, n int) []bitset.Bits {
	sets := make([]bitset.Bits, n)
	for k := range sets {
		size := 1 + r.Intn(universe)
		b := bitset.New(size)
		for m := r.Intn(6); m > 0; m-- {
			b.Set(r.Intn(size))
		}
		sets[k] = b
	}
	return sets
}

// TestWeightOfMatchesPerBitSum checks the bit-sliced weight against the
// per-bit sum on random FromSets instances whose counts span every bit
// length, on set totals that leave a partial last word, for random
// bitsets of every density. Counts near 2^62 make the sums wrap, which
// the planes must reproduce exactly as the int64 sum does.
func TestWeightOfMatchesPerBitSum(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(400)
		if n%64 == 0 {
			n++
		}
		counts := make([]int64, n)
		for k := range counts {
			switch r.Intn(4) {
			case 0:
				counts[k] = randomCount(r)
			case 1:
				counts[k] = int64(r.Uint64()) // any int64, negatives included
			default:
				counts[k] = int64(1 + r.Intn(300))
			}
		}
		ev := evidence.FromSets(randomRaggedSets(r, 70, n), counts, 0, 0)
		ix := newIndex(ev, nil)
		if got, want := ix.root.uncovWeight, weightPerBit(counts, ix.root.uncov); got != want {
			t.Fatalf("trial %d: root weight %d, want %d", trial, got, want)
		}
		for probe := 0; probe < 20; probe++ {
			b := bitset.New(n)
			density := r.Intn(8)
			for k := 0; k < n; k++ {
				if r.Intn(8) < density {
					b.Set(k)
				}
			}
			b.Set(n - 1 - r.Intn(min(n, 3))) // a set in the last word
			if got, want := ix.weightOf(b), weightPerBit(counts, b); got != want {
				t.Fatalf("trial %d probe %d: %d sets, weightOf = %d, want %d", trial, probe, n, got, want)
			}
		}
	}
}

// TestOccTransposedMatchesPerBit checks the transposed occ build against
// the per-bit one on ragged FromSets instances over universes of 1 to
// 200 elements and on real evidence sets, whose predicate spaces are
// not a multiple of 64 in size.
func TestOccTransposedMatchesPerBit(t *testing.T) {
	check := func(name string, ev *evidence.Set) {
		t.Helper()
		got, want := buildOcc(ev), buildOccPerBit(ev)
		if len(got) != len(want) {
			t.Fatalf("%s: %d occurrence bitsets, want %d", name, len(got), len(want))
		}
		for e := range want {
			if !got[e].Equal(want[e]) {
				t.Fatalf("%s: occ[%d] = %v, want %v", name, e, got[e].Slice(), want[e].Slice())
			}
		}
	}
	r := rand.New(rand.NewSource(23))
	for universe := 1; universe <= 200; universe++ {
		n := 1 + r.Intn(300)
		ev := evidence.FromSets(randomRaggedSets(r, universe, n), make([]int64, n), 0, 0)
		check("random", ev)
	}
	for _, name := range []string{"adult", "tax", "stock"} {
		d, err := datagen.ByName(name, 40, 1)
		if err != nil {
			t.Fatal(err)
		}
		space := predicate.Build(d.Rel, predicate.DefaultOptions())
		ev, err := (evidence.ClusterBuilder{Workers: 1}).Build(space, false)
		if err != nil {
			t.Fatal(err)
		}
		if space.Size()%64 == 0 {
			t.Fatalf("%s: %d predicates, want a partial last element word", name, space.Size())
		}
		check(name, ev)
	}
}
