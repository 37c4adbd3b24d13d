package hitset

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"adc/internal/approx"
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
// per-bit sum of the index's ordered counts on random FromSets instances
// whose counts span every bit length, on set totals that leave a partial
// last word, for random bitsets of every density. Counts near 2^62 make
// the sums wrap, which the planes must reproduce exactly as the int64
// sum does.
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
		if got, want := ix.root.uncovWeight, weightPerBit(ix.ev.Counts, ix.root.uncov); got != want {
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
			if got, want := ix.weightOf(b), weightPerBit(ix.ev.Counts, b); got != want {
				t.Fatalf("trial %d probe %d: %d sets, weightOf = %d, want %d", trial, probe, n, got, want)
			}
		}
	}
}

// tieCount draws a multiplicity from a few values, so bit lengths tie
// often: 0 (a third of the draws, so whole words of zeros come up), 1,
// 2, 3, 5, 2^62, −1 and an arbitrary negative value.
func tieCount(r *rand.Rand) int64 {
	switch r.Intn(12) {
	case 0, 1, 2, 3:
		return 0
	case 4:
		return 1
	case 5:
		return 2
	case 6:
		return 3
	case 7:
		return 5
	case 8:
		return 1 << 62
	case 9:
		return -1
	case 10:
		return -1 - r.Int63()
	default:
		return randomCount(r)
	}
}

// TestIndexOrderAndPlanes checks the index's view of the evidence and
// its planes on ragged FromSets instances with vios. The view must be a
// permutation of the input that keeps each set's words, count and
// flattened tuple list together, in non-increasing bit length of the
// counts with ties in input order. Each word of the planes must have
// exactly as many planes as its largest count's bit length (none for a
// word of zero counts) and must spell every count of the word.
func TestIndexOrderAndPlanes(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	zeroWords := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(400)
		counts := make([]int64, n)
		vios := make([]map[int32]int64, n)
		for k := range counts {
			counts[k] = tieCount(r)
			// Tuple k appears in set k's vios alone, so a list names its set.
			vios[k] = map[int32]int64{int32(k): int64(k) + 1, int32(n + r.Intn(3)): 1}
		}
		sets := randomRaggedSets(r, 70, n)
		ev := evidence.FromSets(sets, counts, n+3, 1)
		ev.Vios = vios
		ix := newIndex(ev, approx.F2{})
		if !ix.eval.fastTuple {
			t.Fatal("instance lacks vios: the tuple lists go unchecked")
		}

		from := map[*uint64]int{} // a set's first word → its input index
		for k, s := range sets {
			from[&s[0]] = k
		}
		seen := make([]bool, n)
		prev := -1
		for i, s := range ix.ev.Sets {
			k, ok := from[&s[0]]
			if !ok || seen[k] {
				t.Fatalf("trial %d: ordered set %d is not a distinct input set", trial, i)
			}
			seen[k] = true
			if ix.ev.Counts[i] != counts[k] {
				t.Fatalf("trial %d: ordered set %d (input %d) has count %d, want %d", trial, i, k, ix.ev.Counts[i], counts[k])
			}
			want := []tupleCount{{int32(k), int64(k) + 1}}
			for tu, c := range vios[k] {
				if tu != int32(k) {
					want = append(want, tupleCount{tu, c})
				}
			}
			got := slices.Clone(ix.eval.viosList[i])
			byTuple := func(a, b tupleCount) int { return cmp.Compare(a.t, b.t) }
			slices.SortFunc(got, byTuple)
			slices.SortFunc(want, byTuple)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: ordered set %d (input %d) has tuples %v, want %v", trial, i, k, got, want)
			}
			if i > 0 {
				l, lp := bits.Len64(uint64(counts[k])), bits.Len64(uint64(ix.ev.Counts[i-1]))
				if l > lp {
					t.Fatalf("trial %d: bit length rises from %d to %d at %d", trial, lp, l, i)
				}
				if l == lp && k < prev {
					t.Fatalf("trial %d: tie at %d puts input %d after input %d", trial, i, k, prev)
				}
			}
			prev = k
		}
		if len(ix.ev.Sets) != n || len(ix.ev.Counts) != n || len(ix.ev.Vios) != n {
			t.Fatalf("trial %d: view has %d sets, %d counts, %d vios; want %d", trial,
				len(ix.ev.Sets), len(ix.ev.Counts), len(ix.ev.Vios), n)
		}

		nw := bitset.WordsFor(n)
		if len(ix.off) != nw+1 || ix.off[nw] != len(ix.planes) {
			t.Fatalf("trial %d: %d offsets ending at %d for %d words and %d planes", trial, len(ix.off), ix.off[nw], nw, len(ix.planes))
		}
		for w := 0; w < nw; w++ {
			word := ix.ev.Counts[w*64 : min(n, w*64+64)]
			want := 0
			for _, c := range word {
				want = max(want, bits.Len64(uint64(c)))
			}
			planes := ix.planes[ix.off[w]:ix.off[w+1]]
			if len(planes) != want {
				t.Fatalf("trial %d: word %d has %d planes, want %d", trial, w, len(planes), want)
			}
			if want == 0 {
				zeroWords++
			}
			for b, c := range word {
				var got uint64
				for j, p := range planes {
					got |= p >> b & 1 << j
				}
				if got != uint64(c) {
					t.Fatalf("trial %d: word %d spells count %d of set %d, want %d", trial, w, int64(got), w*64+b, c)
				}
			}
		}
	}
	if zeroWords == 0 {
		t.Fatal("no word of zero counts came up")
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
