package hitset

import (
	"math/rand"
	"sync"
	"testing"

	"adc/internal/datagen"
	"adc/internal/evidence"
	"adc/internal/predicate"
)

// The kernel benchmarks run on the shape of the benchmark's mine job:
// clean adult at 20k rows through a 3% sample, seed 1, which gives
// 61,169 distinct sets over 112 predicates and counts up to 255. In the
// index's order, 410 of the 956 words of sets need one plane and 2 need
// all 8: 2,112 plane words, against 7,648 at 8 planes a word. CI gates
// the planes against the per-bit sum and the transposed occ build
// against the per-bit build (BENCH_enum.json), so a silent fall-back to
// either oracle fails the bench job.
var mineEvidence = sync.OnceValues(func() (*evidence.Set, error) {
	d, err := datagen.ByName("adult", 20000, 1)
	if err != nil {
		return nil, err
	}
	sample := d.Rel.Sample(0.03, rand.New(rand.NewSource(1)))
	space := predicate.Build(sample, predicate.DefaultOptions())
	return (evidence.ClusterBuilder{Workers: 1}).Build(space, false)
})

func benchMineEvidence(b *testing.B) *evidence.Set {
	b.Helper()
	ev, err := mineEvidence()
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

// benchMineIndex returns the index of the mine job's evidence once the
// planes and the per-bit sum of its counts agree on every occ bitset, so
// the two weight benchmarks time equal sums.
func benchMineIndex(b *testing.B) *index {
	b.Helper()
	ix := newIndex(benchMineEvidence(b), nil)
	for e, o := range ix.occ {
		if got, want := ix.weightOf(o), weightPerBit(ix.ev.Counts, o); got != want {
			b.Fatalf("occ[%d]: planes weigh %d, per-bit sum %d", e, got, want)
		}
	}
	return ix
}

// BenchmarkEnumWeightSum weighs every occ bitset one set bit at a time,
// the oracle of BenchmarkEnumWeightPlanes.
func BenchmarkEnumWeightSum(b *testing.B) {
	ix := benchMineIndex(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range ix.occ {
			sinkWeight += weightPerBit(ix.ev.Counts, o)
		}
	}
}

// BenchmarkEnumWeightPlanes weighs every occ bitset against the
// multiplicity planes.
func BenchmarkEnumWeightPlanes(b *testing.B) {
	ix := benchMineIndex(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range ix.occ {
			sinkWeight += ix.weightOf(o)
		}
	}
}

// BenchmarkEnumOccSum builds occ with one Set call per (set, element)
// pair, the oracle of BenchmarkEnumOcc.
func BenchmarkEnumOccSum(b *testing.B) {
	ev := benchMineEvidence(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildOccPerBit(ev)
	}
}

// BenchmarkEnumOcc builds occ by 64×64 bit-matrix transposes.
func BenchmarkEnumOcc(b *testing.B) {
	ev := benchMineEvidence(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildOcc(ev)
	}
}

// sinkWeight keeps the weight sums live.
var sinkWeight int64
