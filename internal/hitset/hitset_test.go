package hitset_test

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"adc/internal/approx"
	"adc/internal/bitset"
	"adc/internal/datagen"
	"adc/internal/evidence"
	"adc/internal/hitset"
	"adc/internal/predicate"
)

// randomInstance builds a small weighted set system for brute-force
// comparison. Universe ≤ 10 elements, ≤ 8 subsets, counts in 1..3.
func randomInstance(r *rand.Rand) (*evidence.Set, int) {
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
			continue // keep distinct, like a real evidence set
		}
		seen[b.Key()] = true
		c := int64(1 + r.Intn(3))
		sets = append(sets, b)
		counts = append(counts, c)
		total += c
	}
	return evidence.FromSets(sets, counts, 0, total), universe
}

// bruteLossF1 computes the f1 loss of hitting set x by scanning all sets.
func bruteLossF1(ev *evidence.Set, x bitset.Bits) float64 {
	var viol int64
	for k, s := range ev.Sets {
		if !s.Intersects(x) {
			viol += ev.Counts[k]
		}
	}
	if ev.TotalPairs == 0 {
		return 0
	}
	return float64(viol) / float64(ev.TotalPairs)
}

// bruteMinimalApprox enumerates, by exhaustion over all subsets, the
// minimal approximate hitting sets w.r.t. f1 and eps.
func bruteMinimalApprox(ev *evidence.Set, universe int, eps float64) map[string]bool {
	type cand struct {
		bits bitset.Bits
		pop  int
	}
	var good []cand
	for mask := 0; mask < 1<<universe; mask++ {
		b := bitset.New(universe)
		for e := 0; e < universe; e++ {
			if mask&(1<<e) != 0 {
				b.Set(e)
			}
		}
		if bruteLossF1(ev, b) <= eps {
			good = append(good, cand{b, b.Count()})
		}
	}
	out := map[string]bool{}
	for _, g := range good {
		minimal := true
		for _, h := range good {
			if h.pop < g.pop && g.bits.ContainsAll(h.bits) {
				minimal = false
				break
			}
		}
		if minimal {
			out[g.bits.Key()] = true
		}
	}
	return out
}

// bruteMinimalExact enumerates minimal (exact) hitting sets.
func bruteMinimalExact(ev *evidence.Set, universe int) map[string]bool {
	return bruteMinimalApprox(ev, universe, 0)
}

func collect(t *testing.T, run func(emit func(bitset.Bits)) hitset.Stats) (map[string]bool, hitset.Stats) {
	t.Helper()
	out := map[string]bool{}
	stats := run(func(hs bitset.Bits) {
		k := hs.Key()
		if out[k] {
			t.Fatalf("hitting set emitted twice: %v", hs)
		}
		out[k] = true
	})
	return out, stats
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestMMCSAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 150; trial++ {
		ev, universe := randomInstance(r)
		want := bruteMinimalExact(ev, universe)
		got, _ := collect(t, func(emit func(bitset.Bits)) hitset.Stats {
			return hitset.EnumerateMinimal(ev, hitset.Options{}, func(hs bitset.Bits) { emit(hs.Clone()) })
		})
		if !sameKeys(got, want) {
			t.Fatalf("trial %d: MMCS found %d minimal hitting sets, brute force %d",
				trial, len(got), len(want))
		}
	}
}

// TestADCEnumAgainstBruteForce is the Theorem 6.1 check: ADCEnum returns
// exactly the minimal approximate hitting sets, each once, across random
// instances and thresholds.
func TestADCEnumAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 150; trial++ {
		ev, universe := randomInstance(r)
		for _, eps := range []float64{0, 0.1, 0.25, 0.5} {
			want := bruteMinimalApprox(ev, universe, eps)
			got, _ := collect(t, func(emit func(bitset.Bits)) hitset.Stats {
				return hitset.EnumerateADC(ev, hitset.Options{Func: approx.F1{}, Epsilon: eps},
					func(hs bitset.Bits) { emit(hs.Clone()) })
			})
			if !sameKeys(got, want) {
				t.Fatalf("trial %d eps %v: ADCEnum %d sets, brute force %d",
					trial, eps, len(got), len(want))
			}
		}
	}
}

func TestADCEnumZeroEpsilonMatchesMMCS(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 100; trial++ {
		ev, _ := randomInstance(r)
		exact, _ := collect(t, func(emit func(bitset.Bits)) hitset.Stats {
			return hitset.EnumerateMinimal(ev, hitset.Options{}, func(hs bitset.Bits) { emit(hs.Clone()) })
		})
		adc, _ := collect(t, func(emit func(bitset.Bits)) hitset.Stats {
			return hitset.EnumerateADC(ev, hitset.Options{Func: approx.F1{}, Epsilon: 0},
				func(hs bitset.Bits) { emit(hs.Clone()) })
		})
		if !sameKeys(exact, adc) {
			t.Fatalf("trial %d: ADCEnum(ε=0) and MMCS disagree: %d vs %d", trial, len(adc), len(exact))
		}
	}
}

func TestBranchChoiceSameOutputs(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for trial := 0; trial < 60; trial++ {
		ev, _ := randomInstance(r)
		maxI, _ := collect(t, func(emit func(bitset.Bits)) hitset.Stats {
			return hitset.EnumerateADC(ev, hitset.Options{Func: approx.F1{}, Epsilon: 0.15},
				func(hs bitset.Bits) { emit(hs.Clone()) })
		})
		minI, _ := collect(t, func(emit func(bitset.Bits)) hitset.Stats {
			return hitset.EnumerateADC(ev,
				hitset.Options{Func: approx.F1{}, Epsilon: 0.15, ChooseMinIntersection: true},
				func(hs bitset.Bits) { emit(hs.Clone()) })
		})
		if !sameKeys(maxI, minI) {
			t.Fatalf("trial %d: branch choice changed the result set", trial)
		}
	}
}

func runningExampleEvidence(t *testing.T) (*evidence.Set, *predicate.Space) {
	t.Helper()
	rel := datagen.RunningExample()
	space := predicate.Build(rel, predicate.DefaultOptions())
	ev, err := evidence.NaiveBuilder{}.Build(space, true)
	if err != nil {
		t.Fatal(err)
	}
	return ev, space
}

func TestRunningExampleFindsPhi1(t *testing.T) {
	ev, space := runningExampleEvidence(t)
	var dcs []predicate.DC
	hitset.EnumerateADC(ev, hitset.Options{Func: approx.F1{}, Epsilon: 0.01},
		func(hs bitset.Bits) {
			dcs = append(dcs, predicate.FromHittingSet(space, hs))
		})
	phi1, err := predicate.FromSpecs(space, datagen.Phi1())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, dc := range dcs {
		if dc.Canonical() == phi1.Canonical() {
			found = true
		}
	}
	if !found {
		t.Errorf("ϕ1 not among %d mined ADCs at ε=0.01 under f1", len(dcs))
	}
	// Soundness: every output's loss is within ε.
	for _, dc := range dcs {
		if l := approx.LossOfHittingSet(approx.F1{}, ev, dc.HittingSet()); l > 0.01+1e-12 {
			t.Errorf("mined DC %s has loss %v > ε", dc, l)
		}
	}
}

func TestOutputsAreMinimalOnRunningExample(t *testing.T) {
	ev, _ := runningExampleEvidence(t)
	eps := 0.02
	var sets []bitset.Bits
	hitset.EnumerateADC(ev, hitset.Options{Func: approx.F1{}, Epsilon: eps},
		func(hs bitset.Bits) { sets = append(sets, hs.Clone()) })
	if len(sets) == 0 {
		t.Fatal("no ADCs mined")
	}
	for _, hs := range sets {
		// Removing any single element must push the loss above ε.
		hs.ForEach(func(e int) {
			smaller := hs.Clone()
			smaller.Clear(e)
			if l := approx.LossOfHittingSet(approx.F1{}, ev, smaller); l <= eps {
				t.Errorf("non-minimal output: dropping element %d keeps loss %v <= %v", e, l, eps)
			}
		})
	}
	// No duplicates among outputs.
	keys := map[string]bool{}
	for _, hs := range sets {
		if keys[hs.Key()] {
			t.Error("duplicate output")
		}
		keys[hs.Key()] = true
	}
}

func TestOperatorVariantRemoval(t *testing.T) {
	ev, space := runningExampleEvidence(t)
	hitset.EnumerateADC(ev, hitset.Options{Func: approx.F1{}, Epsilon: 0.05},
		func(hs bitset.Bits) {
			// No two elements of the hitting set may come from the same
			// operator group (which would yield trivial or redundant DCs).
			elems := hs.Slice()
			for i := 0; i < len(elems); i++ {
				for j := i + 1; j < len(elems); j++ {
					gi := space.GroupMembers(elems[i])
					for _, m := range gi {
						if m == elems[j] {
							t.Fatalf("output contains two operator variants: %s and %s",
								space.String(elems[i]), space.String(elems[j]))
						}
					}
				}
			}
		})
}

func TestMaxPredicatesCap(t *testing.T) {
	ev, _ := runningExampleEvidence(t)
	hitset.EnumerateADC(ev, hitset.Options{Func: approx.F1{}, Epsilon: 0.01, MaxPredicates: 2},
		func(hs bitset.Bits) {
			if hs.Count() > 2 {
				t.Fatalf("output size %d exceeds MaxPredicates", hs.Count())
			}
		})
}

func TestStatsAccounting(t *testing.T) {
	ev, _ := runningExampleEvidence(t)
	var n int64
	stats := hitset.EnumerateADC(ev, hitset.Options{Func: approx.F1{}, Epsilon: 0.02},
		func(bitset.Bits) { n++ })
	if stats.Outputs != n {
		t.Errorf("Stats.Outputs = %d, emitted %d", stats.Outputs, n)
	}
	if stats.Calls <= 0 || stats.LossEvals <= 0 {
		t.Error("stats not accounted")
	}
}

func TestF2AndGreedyF3Enumerate(t *testing.T) {
	ev, ispace := runningExampleEvidence(t)
	for _, f := range []approx.Func{approx.F2{}, approx.GreedyF3{}} {
		var dcs []predicate.DC
		hitset.EnumerateADC(ev, hitset.Options{Func: f, Epsilon: 0.15},
			func(hs bitset.Bits) { dcs = append(dcs, predicate.FromHittingSet(ispace, hs)) })
		if len(dcs) == 0 {
			t.Errorf("%s: no ADCs mined at ε=0.15", f.Name())
		}
		for _, dc := range dcs {
			if l := approx.LossOfHittingSet(f, ev, dc.HittingSet()); l > 0.15+1e-12 {
				t.Errorf("%s: output %s has loss %v", f.Name(), dc, l)
			}
		}
	}
}

// bruteLossOf recomputes a hitting set's loss from scratch: scan every
// distinct set for intersection, hand the uncovered indexes to the
// approximation function's own generic implementation. It shares no
// bookkeeping with the enumerator (no uncov/crit/canHit, no incremental
// counters), so it is the independent checker of the properties below.
func bruteLossOf(f approx.Func, ev *evidence.Set, hs bitset.Bits) float64 {
	var uncovered []int
	for k, s := range ev.Sets {
		if !s.Intersects(hs) {
			uncovered = append(uncovered, k)
		}
	}
	return f.Loss(ev, uncovered)
}

// TestEnumeratedCoversValidAndMinimal is the output-side property of
// Theorem 6.1, re-verified brute-force for every built-in approximation
// function and for both the sequential and the parallel enumerator:
// every emitted cover (a) keeps the loss within ε and (b) is minimal —
// dropping any single element pushes the loss above ε — and (c) no
// cover is emitted twice.
func TestEnumeratedCoversValidAndMinimal(t *testing.T) {
	const tol = 1e-12
	r := rand.New(rand.NewSource(45))
	for trial := 0; trial < 80; trial++ {
		ev, _ := randomVioInstance(r, false)
		f := fuzzFuncs[trial%len(fuzzFuncs)]
		for _, eps := range []float64{0, 0.08, 0.3} {
			for _, workers := range []int{1, 4} {
				var covers []bitset.Bits
				var mu sync.Mutex
				hitset.EnumerateADC(ev, hitset.Options{Func: f, Epsilon: eps, Workers: workers},
					func(hs bitset.Bits) {
						mu.Lock()
						covers = append(covers, hs.Clone())
						mu.Unlock()
					})
				seen := map[string]bool{}
				for _, hs := range covers {
					if seen[hs.Key()] {
						t.Fatalf("trial %d %s eps %v workers %d: cover %v emitted twice",
							trial, f.Name(), eps, workers, hs)
					}
					seen[hs.Key()] = true
					if l := bruteLossOf(f, ev, hs); l > eps+tol {
						t.Fatalf("trial %d %s eps %v workers %d: emitted cover %v has loss %v > ε",
							trial, f.Name(), eps, workers, hs, l)
					}
					hs.ForEach(func(e int) {
						smaller := hs.Clone()
						smaller.Clear(e)
						if l := bruteLossOf(f, ev, smaller); l <= eps+tol {
							t.Fatalf("trial %d %s eps %v workers %d: cover %v is not minimal (dropping %d keeps loss %v)",
								trial, f.Name(), eps, workers, hs, e, l)
						}
					})
				}
			}
		}
	}
}

// TestGenericHittingSets demonstrates the algorithm outside constraint
// discovery (Section 6's generality claim): sets of conference sessions,
// elements are time slots.
func TestGenericHittingSets(t *testing.T) {
	universe := 5
	mk := func(idx ...int) bitset.Bits { return bitset.FromSlice(universe, idx) }
	ev := evidence.FromSets(
		[]bitset.Bits{mk(0, 1), mk(1, 2), mk(3)},
		[]int64{1, 1, 1}, 0, 3)
	var got []string
	hitset.EnumerateMinimal(ev, hitset.Options{}, func(hs bitset.Bits) {
		got = append(got, hs.String())
	})
	sort.Strings(got)
	want := []string{"{0, 2, 3}", "{1, 3}"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
