package hitset

import (
	"math/rand"
	"testing"

	"adc/internal/approx"
	"adc/internal/bitset"
	"adc/internal/evidence"
)

// randomStateInstance builds distinct random sets over a small universe
// with synthetic per-tuple vios, sized to span several bitset words.
func randomStateInstance(r *rand.Rand) (*evidence.Set, int) {
	universe := 3 + r.Intn(10)
	numRows := 2 + r.Intn(12)
	seen := map[string]bool{}
	var sets []bitset.Bits
	var counts []int64
	var vios []map[int32]int64
	var total int64
	for k := 1 + r.Intn(200); k > 0; k-- {
		b := bitset.New(universe)
		for n := 1 + r.Intn(4); n > 0; n-- {
			b.Set(r.Intn(universe))
		}
		if seen[b.Key()] {
			continue
		}
		seen[b.Key()] = true
		c := int64(1 + r.Intn(4))
		m := map[int32]int64{}
		for i := int64(0); i < c; i++ {
			m[int32(r.Intn(numRows))]++
			m[int32(r.Intn(numRows))]++
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

// checkState recomputes the bookkeeping from S alone and compares: U is
// the sets disjoint from S, O the sets meeting S in exactly one element,
// crit[u] the sets whose only element of S is u, and the weights and
// per-tuple counts are sums over U.
func checkState(t *testing.T, st *state, step int) {
	t.Helper()
	ev := st.ev
	wantU, wantO := bitset.New(len(ev.Sets)), bitset.New(len(ev.Sets))
	var weight int64
	vio := make([]int64, ev.NumRows)
	for k, s := range ev.Sets {
		switch s.IntersectionCount(st.sBits) {
		case 0:
			wantU.Set(k)
			weight += ev.Counts[k]
			for tu, c := range ev.Vios[k] {
				vio[tu] += c
			}
		case 1:
			wantO.Set(k)
		}
	}
	nonzero := 0
	for tu, c := range vio {
		if c != st.vioCount[tu] {
			t.Fatalf("step %d S=%v: vioCount[%d] = %d, want %d", step, st.s, tu, st.vioCount[tu], c)
		}
		if c > 0 {
			nonzero++
		}
	}
	switch {
	case !st.uncov.Equal(wantU):
		t.Fatalf("step %d S=%v: U = %v, want %v", step, st.s, st.uncov.Slice(), wantU.Slice())
	case !st.once.Equal(wantO):
		t.Fatalf("step %d S=%v: O = %v, want %v", step, st.s, st.once.Slice(), wantO.Slice())
	case st.nUncov != wantU.Count():
		t.Fatalf("step %d S=%v: |U| = %d, want %d", step, st.s, st.nUncov, wantU.Count())
	case st.uncovWeight != weight:
		t.Fatalf("step %d S=%v: uncovWeight = %d, want %d", step, st.s, st.uncovWeight, weight)
	case st.nonzero != nonzero:
		t.Fatalf("step %d S=%v: nonzero = %d, want %d", step, st.s, st.nonzero, nonzero)
	}
	for _, u := range st.s {
		want := bitset.New(len(ev.Sets))
		for k, s := range ev.Sets {
			if s.Test(u) && s.IntersectionCount(st.sBits) == 1 {
				want.Set(k)
			}
		}
		if got := st.critOf(u); !got.Equal(want) {
			t.Fatalf("step %d S=%v: crit[%d] = %v, want %v", step, st.s, u, got.Slice(), want.Slice())
		}
	}
}

// TestBookkeepingInvariant drives random add/undo sequences through
// updateCritUncov/undoCritUncov and checks the whole U/O state against
// a from-scratch recomputation after every step.
func TestBookkeepingInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	for trial := 0; trial < 200; trial++ {
		ev, universe := randomStateInstance(r)
		st := newState(ev, Options{Func: approx.F2{}}, buildOcc(ev))
		if !st.eval.fastTuple {
			t.Fatal("instance lacks vios: the per-tuple counts go unchecked")
		}
		checkState(t, st, 0)
		var logs []*addLog
		for step := 1; step <= 40; step++ {
			if len(st.s) < universe && (len(st.s) == 0 || r.Intn(3) > 0) {
				e := r.Intn(universe)
				for st.sBits.Test(e) {
					e = r.Intn(universe)
				}
				logs = append(logs, st.updateCritUncov(e, len(st.s)))
				st.push(e)
			} else {
				last := len(st.s) - 1
				st.pop(st.s[last])
				st.undoCritUncov(logs[last])
				logs = logs[:last]
			}
			checkState(t, st, step)
		}
	}
}
