package hitset_test

import (
	"testing"

	"adc/internal/approx"
	"adc/internal/bitset"
	"adc/internal/datagen"
	"adc/internal/evidence"
	"adc/internal/hitset"
	"adc/internal/predicate"
)

// coverDigest folds emitted covers into an order-independent digest: the
// count plus the wrapping sum and the xor of their hashes. EnumerateADC
// never calls emit concurrently, so add needs no lock.
type coverDigest struct {
	n        int
	sum, xor uint64
}

func (d *coverDigest) add(hs bitset.Bits) {
	h := hs.Hash()
	d.n++
	d.sum += h
	d.xor ^= h
}

// gateEvidence is the enumeration gate instance of the root benchmarks
// (BenchmarkEnum*Adult): adult at 80 rows, seed 1, ClusterBuilder evidence.
func gateEvidence(t *testing.T) *evidence.Set {
	t.Helper()
	d, err := datagen.ByName("adult", 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	space := predicate.Build(d.Rel, predicate.DefaultOptions())
	ev, err := (evidence.ClusterBuilder{}).Build(space, false)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestSearchTreePinned pins the exact search tree of both enumerators on
// the gate instance: Stats count every node and loss evaluation, and the
// digest fixes the emitted covers. The bookkeeping may get cheaper, but
// any change that reshapes the tree (a different chooseUncov pick, a
// different crit check outcome) fails here rather than only moving a
// timing.
func TestSearchTreePinned(t *testing.T) {
	ev := gateEvidence(t)

	wantADC := hitset.Stats{Calls: 27875, Outputs: 666, LossEvals: 33603}
	wantADCDigest := coverDigest{n: 666, sum: 0x5c649afc7592ae22, xor: 0xb9d5d982e5950c72}
	for _, workers := range []int{1, 2} {
		var d coverDigest
		st := hitset.EnumerateADC(ev, hitset.Options{
			Func: approx.F1{}, Epsilon: 0.02, MaxPredicates: 3, Workers: workers,
		}, d.add)
		if st != wantADC {
			t.Errorf("ADCEnum workers %d: stats %+v, want %+v", workers, st, wantADC)
		}
		if d != wantADCDigest {
			t.Errorf("ADCEnum workers %d: covers digest %+v, want %+v", workers, d, wantADCDigest)
		}
	}

	wantMMCS := hitset.Stats{Calls: 22811, Outputs: 1052}
	wantMMCSDigest := coverDigest{n: 1052, sum: 0x1a14b846acc70d93, xor: 0x5ac9ceea49b2d7ff}
	var d coverDigest
	st := hitset.EnumerateMinimal(ev, hitset.Options{MaxPredicates: 3}, d.add)
	if st != wantMMCS {
		t.Errorf("MMCS: stats %+v, want %+v", st, wantMMCS)
	}
	if d != wantMMCSDigest {
		t.Errorf("MMCS: covers digest %+v, want %+v", d, wantMMCSDigest)
	}
}
