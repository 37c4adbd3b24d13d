package hitset_test

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"adc/internal/approx"
	"adc/internal/bitset"
	"adc/internal/datagen"
	"adc/internal/evidence"
	"adc/internal/hitset"
	"adc/internal/predicate"
)

// randomVioInstance builds a small weighted set system with synthetic
// per-tuple violation counts, so the tuple-based approximation functions
// (f2, greedy f3) are exercised too. Each distinct set's count c stands
// for c violating pairs, drawn as at most four pairs of random distinct
// tuples that share them, mirroring how real evidence vios are built.
// Counts are 1 to 4, or with heavy of any bit length up to 59, so the
// sum of at most twelve of them still fits an int64.
func randomVioInstance(r *rand.Rand, heavy bool) (*evidence.Set, int) {
	universe := 3 + r.Intn(9)
	numRows := 4 + r.Intn(10)
	nsets := 1 + r.Intn(12)
	seen := map[string]bool{}
	var sets []bitset.Bits
	var counts []int64
	var vios []map[int32]int64
	var total int64
	for k := 0; k < nsets; k++ {
		b := bitset.New(universe)
		for n := 1 + r.Intn(3); n > 0; n-- {
			b.Set(r.Intn(universe))
		}
		if seen[b.Key()] {
			continue
		}
		seen[b.Key()] = true
		c := int64(1 + r.Intn(4))
		if heavy {
			c = int64(1)<<(1+r.Intn(58)) + int64(r.Intn(3)) - 1
		}
		m := map[int32]int64{}
		pairs := min(c, 4)
		for i := int64(0); i < pairs; i++ {
			t1 := int32(r.Intn(numRows))
			t2 := int32(r.Intn(numRows))
			for t2 == t1 {
				t2 = int32(r.Intn(numRows))
			}
			share := c / pairs
			if i == 0 {
				share += c % pairs
			}
			m[t1] += share
			m[t2] += share
		}
		sets = append(sets, b)
		counts = append(counts, c)
		vios = append(vios, m)
		total += c
	}
	ev := evidence.FromSets(sets, counts, numRows, total)
	ev.Vios = vios
	return ev, universe
}

func enumKeys(ev *evidence.Set, opts hitset.Options) (map[string]bool, hitset.Stats) {
	out := map[string]bool{}
	var mu sync.Mutex
	stats := hitset.EnumerateADC(ev, opts, func(hs bitset.Bits) {
		mu.Lock()
		out[hs.Key()] = true
		mu.Unlock()
	})
	return out, stats
}

func parallelKeys(ev *evidence.Set, opts hitset.Options, workers int) (map[string]bool, hitset.Stats) {
	out := map[string]bool{}
	var mu sync.Mutex
	stats := hitset.EnumerateADCParallelForTest(ev, opts, workers, func(hs bitset.Bits) {
		mu.Lock()
		out[hs.Key()] = true
		mu.Unlock()
	})
	return out, stats
}

var fuzzFuncs = []approx.Func{approx.F1{}, approx.F1Adjusted{Z: 1.2}, approx.F2{}, approx.GreedyF3{}}

// TestParallelMatchesSerialRandom is the core differential property of
// the parallel enumerator: for random instances, thresholds, functions,
// and worker counts, the emitted cover set — and, because every search
// node is processed exactly once, the full Stats — equal the sequential
// run's.
func TestParallelMatchesSerialRandom(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 120; trial++ {
		ev, _ := randomVioInstance(r, false)
		f := fuzzFuncs[trial%len(fuzzFuncs)]
		for _, eps := range []float64{0, 0.1, 0.3} {
			opts := hitset.Options{Func: f, Epsilon: eps, Workers: 1}
			want, wantStats := enumKeys(ev, opts)
			for _, workers := range []int{1, 2, 8} {
				got, gotStats := parallelKeys(ev, opts, workers)
				if !sameKeys(got, want) {
					t.Fatalf("trial %d %s eps %v workers %d: parallel %d covers, serial %d",
						trial, f.Name(), eps, workers, len(got), len(want))
				}
				if gotStats != wantStats {
					t.Fatalf("trial %d %s eps %v workers %d: stats %+v, serial %+v",
						trial, f.Name(), eps, workers, gotStats, wantStats)
				}
			}
		}
	}
}

// TestParallelMatchesSerialOnDatasets runs the differential check on
// real predicate spaces from the seeded generators, where operator
// variants, the canHit pruning, and MaxPredicates all come into play.
func TestParallelMatchesSerialOnDatasets(t *testing.T) {
	funcsFor := map[string][]approx.Func{
		"adult":    {approx.F1{}, approx.GreedyF3{}},
		"hospital": {approx.F2{}},
	}
	for _, name := range []string{"adult", "hospital"} {
		d, err := datagen.ByName(name, 40, 1)
		if err != nil {
			t.Fatal(err)
		}
		space := predicate.Build(d.Rel, predicate.DefaultOptions())
		ev, err := evidence.NaiveBuilder{}.Build(space, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range funcsFor[name] {
			opts := hitset.Options{Func: f, Epsilon: 0.02, MaxPredicates: 3, Workers: 1}
			want, wantStats := enumKeys(ev, opts)
			if len(want) == 0 {
				t.Fatalf("%s/%s: serial enumeration found nothing; test is vacuous", name, f.Name())
			}
			for _, workers := range []int{2, 8} {
				opts.Workers = workers
				got, gotStats := enumKeys(ev, opts)
				if !sameKeys(got, want) {
					t.Errorf("%s/%s workers %d: %d covers, serial %d",
						name, f.Name(), workers, len(got), len(want))
				}
				if gotStats != wantStats {
					t.Errorf("%s/%s workers %d: stats %+v, serial %+v",
						name, f.Name(), workers, gotStats, wantStats)
				}
			}
		}
	}
}

// TestParallelAgainstBruteForce re-runs the Theorem 6.1 check through
// the parallel machinery, so its correctness does not rest only on
// agreement with the serial implementation.
func TestParallelAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	for trial := 0; trial < 80; trial++ {
		ev, universe := randomInstance(r)
		for _, eps := range []float64{0, 0.25} {
			want := bruteMinimalApprox(ev, universe, eps)
			got, _ := parallelKeys(ev, hitset.Options{Func: approx.F1{}, Epsilon: eps}, 4)
			if !sameKeys(got, want) {
				t.Fatalf("trial %d eps %v: parallel %d covers, brute force %d",
					trial, eps, len(got), len(want))
			}
		}
	}
}

// TestParallelEightWorkersRace exercises 8-worker enumeration on a real
// dataset with enough tree to keep every worker busy; under `go test
// -race` this is the race check on the node hand-off queue, the
// serialized emission, and the stats join. Concurrent EnumerateADC calls
// share one evidence set, as server mine jobs do.
func TestParallelEightWorkersRace(t *testing.T) {
	d, err := datagen.ByName("adult", 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	space := predicate.Build(d.Rel, predicate.DefaultOptions())
	ev, err := evidence.NaiveBuilder{}.Build(space, false)
	if err != nil {
		t.Fatal(err)
	}
	opts := hitset.Options{Func: approx.F1{}, Epsilon: 0.02, MaxPredicates: 3, Workers: 8}
	want, wantStats := enumKeys(ev, hitset.Options{Func: approx.F1{}, Epsilon: 0.02, MaxPredicates: 3, Workers: 1})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, gotStats := enumKeys(ev, opts)
			if !sameKeys(got, want) {
				t.Errorf("concurrent 8-worker run: %d covers, serial %d", len(got), len(want))
			}
			if gotStats != wantStats {
				t.Errorf("concurrent 8-worker run: stats %+v, serial %+v", gotStats, wantStats)
			}
		}()
	}
	wg.Wait()
}

// TestWorkersClamped pins the bound on client-reachable worker counts:
// a mine request asking for 100 million workers must not become 100
// million goroutines (each with a full bookkeeping copy), while sane
// explicit counts — the 8 of the CI gate included — pass through
// unchanged on any machine.
func TestWorkersClamped(t *testing.T) {
	if got := hitset.ClampWorkersForTest(100_000_000); got > 4*runtime.GOMAXPROCS(0) && got > 32 {
		t.Fatalf("clampWorkers(1e8) = %d, want a per-core bound", got)
	}
	for _, w := range []int{0, 1, 8, 32} {
		if got := hitset.ClampWorkersForTest(w); got != w {
			t.Fatalf("clampWorkers(%d) = %d, want unchanged", w, got)
		}
	}
	// The clamped run still enumerates correctly end to end.
	r := rand.New(rand.NewSource(74))
	ev, _ := randomVioInstance(r, false)
	opts := hitset.Options{Func: approx.F1{}, Epsilon: 0.1}
	serial, _ := enumKeys(ev, opts)
	opts.Workers = 1 << 30
	huge, _ := enumKeys(ev, opts)
	if !sameKeys(huge, serial) {
		t.Fatalf("clamped run emitted %d covers, serial %d", len(huge), len(serial))
	}
}

// TestWorkersAutoDispatch pins the Workers contract: 0 and 1 both
// enumerate, emit identical sets, and tiny instances take the sequential
// path without blowing up.
func TestWorkersAutoDispatch(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	ev, _ := randomVioInstance(r, false)
	opts := hitset.Options{Func: approx.F1{}, Epsilon: 0.1}
	auto, _ := enumKeys(ev, opts)
	opts.Workers = 1
	serial, _ := enumKeys(ev, opts)
	if !sameKeys(auto, serial) {
		t.Fatalf("Workers 0 emitted %d covers, Workers 1 %d", len(auto), len(serial))
	}
}
