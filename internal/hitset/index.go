package hitset

import (
	"math/bits"

	"adc/internal/approx"
	"adc/internal/bitset"
	"adc/internal/evidence"
)

// index is the read-only side of one enumeration: everything the search
// needs from the evidence set that no move changes. It is built once per
// enumeration and shared by every worker of a parallel run.
//
// The index holds its own view of the evidence, ev: the caller's
// distinct sets, counts and vios in descending bit length of each
// count. Every bitset over the distinct sets (occ, U, O, canHit, the
// undo logs) is over this order, so chooseUncov's bounded scan of U
// meets the heaviest sets first, and a word of the multiplicity planes
// holds sets of similar weight: the many sets that occur once share
// words that need one plane.
type index struct {
	// ev is the enumeration's view of the evidence set (see orderByWeight).
	ev *evidence.Set
	// occ[e] is the set of distinct evidence sets containing element e.
	occ []bitset.Bits
	// planes bit-slices the multiplicities (O'Neil and Quass, "Improved
	// Query Performance with Variant Indexes", SIGMOD 1997): word i of a
	// bitset over the distinct sets has the planes planes[off[i]:off[i+1]],
	// whose plane j holds bit j of the counts of sets 64i..64i+63, so the
	// weight of the sets a word w selects is Σ_j popcount(w & plane_j) << j,
	// and no set is visited one by one. A word has as many planes as its
	// largest count's bit length.
	planes []uint64
	off    []int
	// eval holds the flattened vios maps of the tuple-based functions;
	// each worker forks it for its own scratch space.
	eval *Evaluator
	// root is the root node of the search tree; each worker starts from
	// a copy.
	root node
}

func newIndex(ev *evidence.Set, f approx.Func) *index {
	ev = orderByWeight(ev)
	ix := &index{ev: ev, occ: buildOcc(ev), eval: NewEvaluator(ev, f)}
	ix.planes, ix.off = buildPlanes(ev.Counts)
	n, universe := len(ev.Sets), len(ix.occ)
	r := &ix.root
	r.uncov, r.once, r.canHit = bitset.New(n), bitset.New(n), bitset.New(n)
	r.cand, r.sBits = bitset.New(universe), bitset.New(universe)
	r.nUncov = n
	for k := 0; k < n; k++ {
		r.uncov.Set(k)
		r.canHit.Set(k)
	}
	for e := 0; e < universe; e++ {
		r.cand.Set(e)
	}
	r.uncovWeight = ix.weightOf(r.uncov)
	if ix.eval.fastTuple {
		r.vioCount = make([]int64, ev.NumRows)
		for _, list := range ix.eval.viosList {
			for _, tc := range list {
				if r.vioCount[tc.t] == 0 {
					r.nonzero++
				}
				r.vioCount[tc.t] += tc.c
			}
		}
	}
	return ix
}

// orderByWeight returns a copy of ev whose distinct sets, counts and
// vios run in descending bit length of each count, ties in ev's order.
// It is one stable counting pass over the 65 bit lengths: a negative
// count reads as its two's complement and goes first, a zero count
// last. The copy shares the sets' words and the vios maps with ev;
// every other field is ev's.
func orderByWeight(ev *evidence.Set) *evidence.Set {
	var next [65]int
	for _, c := range ev.Counts {
		next[bits.Len64(uint64(c))]++
	}
	pos := 0
	for l := len(next) - 1; l >= 0; l-- {
		pos, next[l] = pos+next[l], pos
	}
	o := *ev
	o.Sets = make([]bitset.Bits, len(ev.Sets))
	o.Counts = make([]int64, len(ev.Counts))
	if ev.Vios != nil {
		o.Vios = make([]map[int32]int64, len(ev.Vios))
	}
	for k, c := range ev.Counts {
		l := bits.Len64(uint64(c))
		i := next[l]
		next[l]++
		o.Sets[i], o.Counts[i] = ev.Sets[k], c
		if ev.Vios != nil {
			o.Vios[i] = ev.Vios[k]
		}
	}
	return &o
}

func universeSize(ev *evidence.Set) int {
	if ev.Space != nil {
		return ev.Space.Size()
	}
	max := 0
	for _, s := range ev.Sets {
		if n := len(s) * 64; n > max {
			max = n
		}
	}
	return max
}

// buildOcc returns the per-element occurrence bitsets over the distinct
// sets of ev: bit k of occ[e] is set iff set k contains e. It transposes
// the set-by-element bit matrix one 64×64 block at a time instead of
// setting one bit per (set, element) pair. Words a set lacks (sets built
// by evidence.FromSets may differ in length) transpose as zero.
func buildOcc(ev *evidence.Set) []bitset.Bits {
	universe := universeSize(ev)
	nw := bitset.WordsFor(len(ev.Sets))
	backing := make([]uint64, universe*nw)
	occ := make([]bitset.Bits, universe)
	for e := range occ {
		occ[e] = backing[e*nw : (e+1)*nw : (e+1)*nw]
	}
	var block [64]uint64
	for sw := 0; sw < nw; sw++ {
		rows := ev.Sets[sw*64 : min(len(ev.Sets), sw*64+64)]
		for ew := 0; ew*64 < universe; ew++ {
			for r, s := range rows {
				block[r] = 0
				if ew < len(s) {
					block[r] = s[ew]
				}
			}
			clear(block[len(rows):])
			transpose64(&block)
			for c, w := range block[:min(64, universe-ew*64)] {
				occ[ew*64+c][sw] = w
			}
		}
	}
	return occ
}

// transpose64 transposes the 64×64 bit matrix whose row r is a[r] and
// whose column c is bit c of each row: afterwards bit c of a[r] is the
// old bit r of a[c]. Each round swaps the two off-diagonal j×j blocks of
// every 2j×2j block (Hacker's Delight, §7-3), halving j from 32 to 1.
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000ffffffff)
	for j := 32; j != 0; j, m = j>>1, m^m<<(j>>1) {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>j ^ a[k+j]) & m
			a[k] ^= t << j
			a[k+j] ^= t
		}
	}
}

// buildPlanes bit-slices counts into interleaved planes, word by word:
// the planes of word i are planes[off[i]:off[i+1]], as many as the
// longest count among sets 64i..64i+63 needs, so a word of zero counts
// has none. A negative count reads as its two's complement, which takes
// all 64 planes, so weights wrap exactly as an int64 sum.
func buildPlanes(counts []int64) (planes []uint64, off []int) {
	nw := bitset.WordsFor(len(counts))
	off = make([]int, nw+1)
	for i := 0; i < nw; i++ {
		np := 0
		for _, c := range counts[i*64 : min(len(counts), i*64+64)] {
			np = max(np, bits.Len64(uint64(c)))
		}
		off[i+1] = off[i] + np
	}
	planes = make([]uint64, off[nw])
	for k, c := range counts {
		p := planes[off[k/64]:]
		for u := uint64(c); u != 0; u &= u - 1 {
			p[bits.TrailingZeros64(u)] |= 1 << (k % 64)
		}
	}
	return planes, off
}

// weightOf sums the multiplicities of the sets in b.
func (ix *index) weightOf(b bitset.Bits) int64 {
	var sum uint64
	for i, w := range b {
		if w != 0 {
			sum += ix.wordWeight(i, w)
		}
	}
	return int64(sum)
}

// wordWeight sums the multiplicities of the sets that w selects in word
// i of a bitset over the distinct sets. It evaluates
// Σ_j popcount(w & plane_j) << j from the top plane down (Horner's
// rule), so every shift is by one: a shift by the loop index compiles
// to a guarded variable shift that keeps the sum out of a register.
func (ix *index) wordWeight(i int, w uint64) uint64 {
	var sum uint64
	p := ix.planes[ix.off[i]:ix.off[i+1]]
	for j := len(p) - 1; j >= 0; j-- {
		sum = sum<<1 + uint64(bits.OnesCount64(w&p[j]))
	}
	return sum
}
