// Package hitset implements the two hitting-set enumerators of the
// paper: MMCS, the exact minimal-hitting-set algorithm of Murakami and
// Uno (Figure 3), and ADCEnum, the paper's algorithm for enumerating
// minimal *approximate* hitting sets (Figures 4 and 5). Both operate on
// an evidence set (package evidence): the elements of the universe are
// predicate IDs and the subsets to hit are the distinct evidence sets,
// weighted by multiplicity.
//
// Both enumerators run on one bookkeeping kernel. The pseudo-code's
// uncov and crit are two bitsets over the distinct evidence sets: U, the
// sets no element of the current hitting set S hits, and O, the sets
// exactly one element of S hits; the crit set of u ∈ S is O ∩ occ[u],
// where occ[u] is the bitset of evidence sets containing u. Adding or
// removing an element is a few word-wise passes over ⌈sets/64⌉ words.
//
// What no move changes lives in one read-only index per enumeration
// (index.go), shared by every worker. It holds the enumeration's own
// order of the distinct sets, heaviest first: one stable counting pass
// by the bit length of each multiplicity, so the bounded branch choice
// picks among the heaviest uncovered sets. Over that order it builds
// occ, by 64×64 bit-matrix transposes of the sets; the multiplicities
// as bit planes, so the f1 weight of a bitset (Section 5's bookkeeping)
// is a few popcounts per word instead of a sum over its set bits, with
// each word holding only the planes its largest count needs; and, for
// f2 and greedy f3, the vios maps flattened once. The caller's evidence
// set is never modified; only the order in which covers are emitted
// depends on the index's order.
//
// ADCEnum runs either as the classic sequential recursion or, with
// Options.Workers, as a parallel enumeration: a worker that is about to
// descend while another worker sits idle hands it a copy of the child
// node instead, and the idle worker enumerates that subtree with its
// own scratch space (see parallel.go). Both modes emit exactly the same
// set of hitting sets.
//
// As the paper notes (Section 6), ADCEnum is a general algorithm for
// enumerating minimal approximate hitting sets and is usable outside
// constraint discovery: build the input with evidence.FromSets and leave
// the predicate space nil, which disables the DC-specific
// operator-variant pruning.
package hitset

import (
	"math/bits"
	"runtime"
	"slices"

	"adc/internal/approx"
	"adc/internal/bitset"
	"adc/internal/evidence"
	"adc/internal/par"
)

// Stats reports the work done by an enumeration run. Parallel runs keep
// one Stats per worker and sum them at join; because every search node
// is processed by exactly one worker, the totals equal the sequential
// run's.
type Stats struct {
	// Calls counts recursive invocations (both branches), the metric of
	// the Figure 10 ablation.
	Calls int64
	// Outputs counts emitted (approximate) hitting sets.
	Outputs int64
	// LossEvals counts approximation-function evaluations.
	LossEvals int64
}

// Options configures ADCEnum.
type Options struct {
	// Func is the approximation function; required.
	Func approx.Func
	// Epsilon is the approximation threshold ε ≥ 0 (Definition 4.4).
	Epsilon float64
	// Workers selects the enumeration parallelism of EnumerateADC: 0
	// picks GOMAXPROCS (degrading to the sequential recursion on small
	// evidence sets, where fan-out costs more than it buys), 1 forces
	// the sequential recursion, and n > 1 distributes search subtrees
	// across n workers, which hand subtrees to each other whenever one
	// is idle. The emitted set of hitting sets is identical for every
	// value. EnumerateMinimal ignores it.
	Workers int
	// ChooseMinIntersection selects, at each node, the uncovered set with
	// the minimum intersection with the candidate list, as Murakami and
	// Uno suggest. The default (false) picks the maximum intersection,
	// the paper's improvement evaluated in Figure 10.
	ChooseMinIntersection bool
	// MaxPredicates bounds the hitting-set size (DC length); 0 means
	// unbounded.
	MaxPredicates int
}

// autoParallelMinSets is the instance size below which Workers == 0
// falls back to the sequential recursion: with fewer distinct evidence
// sets the whole enumeration is cheaper than spinning up a pool.
const autoParallelMinSets = 128

// EnumerateADC runs ADCEnum over the evidence set and calls emit with
// every minimal approximate hitting set w.r.t. opts.Func and
// opts.Epsilon. The bitset passed to emit is reused; clone it to retain.
// Theorem 6.1: every emitted set is a minimal ADC hitting set, all of
// them are emitted, and each exactly once — in parallel runs emit is
// invoked from worker goroutines but never concurrently, and the emitted
// set is identical to the sequential run's (order may differ).
func EnumerateADC(ev *evidence.Set, opts Options, emit func(hs bitset.Bits)) Stats {
	workers := par.Clamp(opts.Workers)
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
		if len(ev.Sets) < autoParallelMinSets {
			workers = 1
		}
	}
	if workers <= 1 {
		st := newState(newIndex(ev, opts.Func), opts)
		st.emit = emit
		st.adcEnum()
		return st.stats
	}
	return enumerateADCParallel(ev, opts, workers, emit)
}

// EnumerateMinimal runs the exact MMCS algorithm and calls emit with
// every minimal hitting set of the evidence set (equivalently, every
// minimal valid DC's complement set). The bitset passed to emit is
// reused; clone it to retain.
func EnumerateMinimal(ev *evidence.Set, opts Options, emit func(hs bitset.Bits)) Stats {
	st := newState(newIndex(ev, opts.Func), opts)
	st.emit = emit
	st.mmcs()
	return st.stats
}

// node is the bookkeeping of one search node of Figures 3 and 4, as
// bitsets over the distinct evidence sets: uncov (U, the sets no element
// of the growing hitting set S hits) and once (O, the sets exactly one
// element of S hits). The pseudo-code's crit[u] for u ∈ S is derived
// rather than stored: it is O ∩ occ[u], the sets only u hits. Adding an
// element is one word-wise pass over ⌈sets/64⌉ words (see
// updateCritUncov), and the covered/stolen words it records are the undo
// log that restores the node exactly as the pseudo-code's "recover"
// lines require.
//
// Every branch decision below is a pure function of the node:
// chooseUncov scans U in the index's order, and crit checks, losses and
// canHit flips depend only on which bits are set, never on a worker's
// scratch space. A copy of a node (see clone) therefore enumerates
// exactly the subtree the original would have.
type node struct {
	uncov       bitset.Bits // U: sets hit by no element of S
	once        bitset.Bits // O: sets hit by exactly one element of S
	nUncov      int         // |U|
	uncovWeight int64       // sum of multiplicities over U
	canHit      bitset.Bits // sets not yet marked unhittable (Figure 5)
	cand        bitset.Bits
	s           []int       // the growing hitting set S
	sBits       bitset.Bits // same as s, as a bitset
	// vioCount/nonzero maintain per-tuple violation participation over
	// U incrementally as sets move in and out (the bookkeeping idea
	// the paper applies to f1 in Section 5), so F2/greedy-F3 losses
	// avoid rescanning every uncovered set's vios. nil unless the
	// evaluator takes its fast tuple path.
	vioCount []int64
	nonzero  int // tuples with vioCount > 0
}

// clone returns a deep copy of the node.
func (n *node) clone() *node {
	c := *n
	c.uncov = n.uncov.Clone()
	c.once = n.once.Clone()
	c.canHit = n.canHit.Clone()
	c.cand = n.cand.Clone()
	c.s = slices.Clone(n.s)
	c.sBits = n.sBits.Clone()
	c.vioCount = slices.Clone(n.vioCount)
	return &c
}

// state is one enumerating worker: the current search node plus the
// scratch space that evaluates and undoes moves on it.
type state struct {
	node
	// ev and sets are the index's view of the evidence set, in its
	// order of the distinct sets.
	ev    *evidence.Set
	sets  []bitset.Bits
	opts  Options
	emit  func(bitset.Bits)
	stats Stats
	// pool, when set, is the parallel run this worker belongs to.
	pool *pool

	// ix is the enumeration's read-only index, shared by every worker of
	// a parallel run.
	ix *index

	// logs pools one undo log per recursion depth, reused across the
	// candidate loop to avoid per-call allocation. Pointers keep a log
	// valid while deeper recursion grows the pool.
	logs []*addLog
	// scratch holds the sets a loss evaluation adds to or takes from U:
	// crit[u] = O ∩ occ[u] in isMinimal, U \ canHit in willCover.
	scratch bitset.Bits

	// eval evaluates losses of explicit uncovered-set lists; the
	// incremental variants below follow its fast-path flags.
	eval *Evaluator
	// merged is the reusable U+extra list of the generic loss path.
	merged []int
	// flipped is the undo stack of updateCanHit: each node pushes the
	// sets it marks unhittable and pops them when its first branch
	// returns, so one buffer serves the whole search. A handed-off copy
	// carries the flips in its canHit; the sender's stack undoes them.
	flipped []int
}

func newState(ix *index, opts Options) *state {
	return &state{
		node:    *ix.root.clone(),
		ix:      ix,
		ev:      ix.ev,
		sets:    ix.ev.Sets,
		opts:    opts,
		scratch: bitset.New(len(ix.ev.Sets)),
		eval:    ix.eval.fork(),
	}
}

// ---- U/O maintenance ----------------------------------------------------

// addLog is the undo record of one updateCritUncov call.
type addLog struct {
	covered  bitset.Bits // sets moved from U to O: crit[e] afterwards
	stolen   bitset.Bits // sets e took out of O (out of some crit[u])
	nCovered int         // |covered|
	weight   int64       // multiplicity sum over covered
}

// logAt returns the pooled undo log for recursion depth d.
func (st *state) logAt(d int) *addLog {
	for len(st.logs) <= d {
		n := len(st.ev.Sets)
		st.logs = append(st.logs, &addLog{covered: bitset.New(n), stolen: bitset.New(n)})
	}
	return st.logs[d]
}

// updateCritUncov is the subroutine of Figure 3 for adding e to S: the
// uncovered sets containing e become critical for e, and the sets
// containing e that were critical for some u ∈ S are hit twice and
// leave O. Word by word, with m = occ[e]:
//
//	covered = U ∩ m, stolen = O ∩ m, U = U \ m, O = (O \ m) ∪ covered
//
// The covered and stolen words go to the pooled log for depth d; only
// covered sets change U's weight and per-tuple counts. The same pass
// weighs the covered words against the multiplicity planes.
func (st *state) updateCritUncov(e, d int) *addLog {
	log := st.logAt(d)
	occ := st.ix.occ[e]
	u, o := st.uncov[:len(occ)], st.once[:len(occ)]
	cov, sto := log.covered[:len(occ)], log.stolen[:len(occ)]
	n := 0
	var weight uint64
	for i, m := range occ {
		c := u[i] & m
		cov[i] = c
		sto[i] = o[i] & m
		u[i] &^= m
		o[i] = o[i]&^m | c
		if c != 0 {
			n += bits.OnesCount64(c)
			weight += st.ix.wordWeight(i, c)
		}
	}
	log.nCovered, log.weight = n, int64(weight)
	st.nUncov -= n
	st.uncovWeight -= log.weight
	if st.eval.fastTuple {
		st.shiftVios(cov, -1)
	}
	return log
}

// undoCritUncov reverses updateCritUncov: U = U ∪ covered and
// O = (O \ covered) ∪ stolen.
func (st *state) undoCritUncov(log *addLog) {
	u, o := st.uncov[:len(log.covered)], st.once[:len(log.covered)]
	sto := log.stolen[:len(log.covered)]
	for i, c := range log.covered {
		u[i] |= c
		o[i] = o[i]&^c | sto[i]
	}
	st.nUncov += log.nCovered
	st.uncovWeight += log.weight
	if st.eval.fastTuple {
		st.shiftVios(log.covered, 1)
	}
}

// shiftVios moves the per-tuple violation counts of the sets in b out
// of U (sign −1) or back into it (sign +1).
func (st *state) shiftVios(b bitset.Bits, sign int64) {
	b.ForEach(func(k int) {
		for _, tc := range st.eval.viosList[k] {
			before := st.vioCount[tc.t]
			after := before + sign*tc.c
			st.vioCount[tc.t] = after
			if before == 0 {
				st.nonzero++
			} else if after == 0 {
				st.nonzero--
			}
		}
	})
}

// critOf writes crit[u] = O ∩ occ[u] into the scratch bitset.
func (st *state) critOf(u int) bitset.Bits {
	crit := st.scratch
	for i, m := range st.ix.occ[u] {
		crit[i] = st.once[i] & m
	}
	return crit
}

// critNonEmptyForAll reports whether every element of S is still
// critical for at least one set, i.e. O meets occ[u] for every u ∈ S
// (the minimality precondition of Figure 3, line 9 / Figure 4, line 17).
// The element just added is checked by its log: crit[e] is exactly the
// sets it covered.
func (st *state) critNonEmptyForAll() bool {
	for _, u := range st.s {
		if !st.once.Intersects(st.ix.occ[u]) {
			return false
		}
	}
	return true
}

// chooseScanLimit bounds how many eligible sets chooseUncov examines.
// The choice of set is a performance heuristic, not a correctness
// requirement (any uncovered set works), so scanning a bounded prefix
// keeps the per-node cost constant on large evidence sets while
// preserving the max/min-intersection preference among the scanned ones.
const chooseScanLimit = 64

// chooseUncov picks the next set to hit: among uncovered sets
// (restricted to canHit=true for ADCEnum when restrict is set), the one
// with the max (or min) intersection with cand among a bounded scan.
// Returns -1 if none qualifies.
//
// The scan walks U in the index's order of the distinct sets, heaviest
// multiplicity first, so the bounded prefix it examines holds the
// heaviest uncovered sets; ties go to the earliest set in that order.
// The choice is therefore a pure function of the node: a copied node
// grows the same subtree on any worker, and TestSearchTreePinned can pin
// the tree (the enumeration itself only needs *some* rule).
func (st *state) chooseUncov(restrict bool) int {
	best, bestN := -1, -1
	scanned := 0
	for wi, w := range st.uncov {
		if restrict {
			w &= st.canHit[wi]
		}
		for w != 0 {
			k := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			n := st.sets[k].IntersectionCount(st.cand)
			if best == -1 {
				best, bestN = k, n
			} else if st.opts.ChooseMinIntersection {
				if n < bestN {
					best, bestN = k, n
				}
			} else if n > bestN {
				best, bestN = k, n
			}
			scanned++
			if scanned >= chooseScanLimit {
				return best
			}
		}
	}
	return best
}

// candidatesIn returns C = cand ∩ F as a slice of elements.
func (st *state) candidatesIn(k int) []int {
	var c []int
	st.sets[k].ForEach(func(e int) {
		if st.cand.Test(e) {
			c = append(c, e)
		}
	})
	return c
}

// ---- MMCS (Figure 3) ----------------------------------------------------

func (st *state) mmcs() {
	st.stats.Calls++
	if st.nUncov == 0 {
		st.emitCover()
		return
	}
	if st.opts.MaxPredicates > 0 && len(st.s) >= st.opts.MaxPredicates {
		return
	}
	f := st.chooseUncov(false)
	c := st.candidatesIn(f)
	for _, e := range c {
		st.cand.Clear(e)
	}
	for _, e := range c {
		log := st.updateCritUncov(e, len(st.s))
		if log.nCovered > 0 && st.critNonEmptyForAll() {
			variants := st.removeOperatorVariants(e)
			st.push(e)
			st.mmcs()
			st.pop(e)
			for _, m := range variants {
				st.cand.Set(m)
			}
			st.cand.Set(e)
		}
		st.undoCritUncov(log)
	}
	for _, e := range c {
		st.cand.Set(e)
	}
}

func (st *state) push(e int) {
	st.s = append(st.s, e)
	st.sBits.Set(e)
}

func (st *state) pop(e int) {
	st.s = st.s[:len(st.s)-1]
	st.sBits.Clear(e)
}

// emitCover reports the current S as an output.
func (st *state) emitCover() {
	st.stats.Outputs++
	st.emit(st.sBits)
}

// ---- ADCEnum (Figures 4 and 5) -------------------------------------------

// loss evaluates 1 − f(D, S′) for the DC whose uncovered sets are U
// plus the sets in extra (disjoint from U; nil for none). Pair-counting
// functions add extra's weight to the maintained uncovWeight.
func (st *state) loss(extra bitset.Bits) float64 {
	st.stats.LossEvals++
	if st.eval.fastPair {
		return st.eval.pairLoss(st.uncovWeight + st.ix.weightOf(extra))
	}
	if st.eval.fastTuple {
		return st.tupleLoss(extra)
	}
	// Generic path: LossOf canonicalizes the order, so a custom Func
	// sees inputs independent of the traversal history and serial and
	// parallel runs cannot diverge. The indexes are into the index's
	// view of the evidence set, which the evaluator hands the Func.
	st.merged = st.merged[:0]
	add := func(k int) { st.merged = append(st.merged, k) }
	st.uncov.ForEach(add)
	extra.ForEach(add)
	return st.eval.LossOf(st.merged)
}

// tupleLoss computes the F2 or greedy-F3 loss for U plus the (disjoint)
// extra sets from the maintained per-tuple counts, matching approx.F2 /
// approx.GreedyF3 exactly. The extra deltas are staged in the
// evaluator's scratch and rolled back through the touched list.
func (st *state) tupleLoss(extra bitset.Bits) float64 {
	e := st.eval
	n := st.ev.NumRows
	var touched []int32
	involved := st.nonzero
	extra.ForEach(func(k int) {
		for _, tc := range e.viosList[k] {
			if st.vioCount[tc.t]+e.scratch[tc.t] == 0 {
				involved++
			}
			if e.scratch[tc.t] == 0 {
				touched = append(touched, tc.t)
			}
			e.scratch[tc.t] += tc.c
		}
	})
	var result float64
	if !e.isF3 {
		result = float64(involved) / float64(n)
	} else {
		result = st.greedyF3(extra)
	}
	for _, t := range touched {
		e.scratch[t] = 0
	}
	return result
}

// greedyF3 is Figure 2's algorithm over the maintained counts plus the
// extra deltas, which the evaluator's scratch must already hold.
func (st *state) greedyF3(extra bitset.Bits) float64 {
	e := st.eval
	e.order = e.order[:0]
	for t, c := range st.vioCount {
		if v := c + e.scratch[t]; v > 0 {
			e.order = append(e.order, v)
		}
	}
	return approx.GreedyF3{}.TupleLoss(e.order, st.uncovWeight+st.ix.weightOf(extra), st.ev.NumRows)
}

// isMinimal is the subroutine of Figure 5: S is minimal iff no single
// deletion keeps the loss within ε. The uncovered sets of S \ {u} are
// U ∪ crit[u], with crit[u] = O ∩ occ[u]. Monotonicity makes single
// deletions sufficient.
func (st *state) isMinimal() bool {
	for _, u := range st.s {
		if st.loss(st.critOf(u)) <= st.opts.Epsilon {
			return false
		}
	}
	return true
}

// willCover is the subroutine of Figure 5: the best any extension of S
// by remaining candidates can do is cover every uncovered set that still
// intersects cand; the sets that cannot be hit are exactly U \ canHit
// (the caller runs updateCanHit first). If even that loss exceeds ε,
// monotonicity prunes the branch.
func (st *state) willCover() bool {
	st.stats.LossEvals++
	unhittable := st.scratch
	for i, w := range st.uncov {
		unhittable[i] = w &^ st.canHit[i]
	}
	if st.eval.fastPair {
		return st.eval.pairLoss(st.ix.weightOf(unhittable)) <= st.opts.Epsilon
	}
	st.merged = st.merged[:0]
	unhittable.ForEach(func(k int) { st.merged = append(st.merged, k) })
	return st.eval.LossOf(st.merged) <= st.opts.Epsilon
}

// updateCanHit is UpdateCanCover of Figure 5: mark every uncovered set
// with an empty intersection with cand as unhittable. The sets flipped
// are pushed on st.flipped, for undo.
func (st *state) updateCanHit() {
	for wi, w := range st.uncov {
		w &= st.canHit[wi]
		for w != 0 {
			k := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			if !st.sets[k].Intersects(st.cand) {
				st.canHit.Clear(k)
				st.flipped = append(st.flipped, k)
			}
		}
	}
}

// removeOperatorVariants drops from cand all predicates that differ
// from e only by operator (Section 6.2), avoiding trivial DCs like
// not(t.A < t'.A and t.A >= t'.A), and returns the removed ones. An
// evidence set without a predicate space has no operator variants.
func (st *state) removeOperatorVariants(e int) []int {
	if st.ev.Space == nil {
		return nil
	}
	var removed []int
	for _, m := range st.ev.Space.GroupMembers(e) {
		if m != e && st.cand.Test(m) {
			st.cand.Clear(m)
			removed = append(removed, m)
		}
	}
	return removed
}

// descend enumerates the child node the state now holds, unless a
// parallel run hands a copy of it to an idle worker instead.
func (st *state) descend() {
	if st.pool != nil && st.pool.offload(&st.node) {
		return
	}
	st.adcEnum()
}

func (st *state) adcEnum() {
	st.stats.Calls++
	if st.loss(nil) <= st.opts.Epsilon {
		if st.isMinimal() {
			st.emitCover()
		}
		return
	}
	if st.opts.MaxPredicates > 0 && len(st.s) >= st.opts.MaxPredicates {
		return
	}
	f := st.chooseUncov(true)
	if f < 0 {
		return
	}

	// Branch 1 (Figure 4, lines 7–12): do not hit F. Remove all of F's
	// elements from cand, mark newly unhittable sets, and recurse if the
	// optimistic extension can still reach ε.
	removedCand := st.candidatesIn(f)
	for _, e := range removedCand {
		st.cand.Clear(e)
	}
	mark := len(st.flipped)
	st.updateCanHit()
	if st.willCover() {
		st.descend()
	}
	for _, k := range st.flipped[mark:] {
		st.canHit.Set(k)
	}
	st.flipped = st.flipped[:mark]
	for _, e := range removedCand {
		st.cand.Set(e)
	}

	// Branch 2 (lines 13–22): hit F, exactly as in MMCS, plus the
	// operator-variant removal of Section 6.2.
	c := st.candidatesIn(f)
	for _, e := range c {
		st.cand.Clear(e)
	}
	for _, e := range c {
		log := st.updateCritUncov(e, len(st.s))
		if log.nCovered > 0 && st.critNonEmptyForAll() {
			variants := st.removeOperatorVariants(e)
			st.push(e)
			st.descend()
			st.pop(e)
			for _, m := range variants {
				st.cand.Set(m)
			}
			st.cand.Set(e)
		}
		st.undoCritUncov(log)
	}
	for _, e := range c {
		st.cand.Set(e)
	}
}
