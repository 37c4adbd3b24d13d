package hitset

// Parallel ADCEnum: the search tree of Figure 4 is cut into subtrees,
// each identified by an explicit node frame — the move sequence from the
// root — and enumerated by a pool of workers, each with a private copy
// of the mutable bookkeeping (U, O, cand, canHit and the loss
// evaluator's scratch space) over the occurrence bitsets occ, which all
// workers share read-only.
//
// A coordinator first enumerates the shallow nodes sequentially and
// enqueues the frontier subtrees (every node at depth seedDepth) onto a
// shared channel-based deque. Workers drain it; when the queue starves
// and some worker sits idle, busy workers steal-feed it by offloading
// subtrees they were about to recurse into — the decision is made at
// descend() time, so a skewed subtree keeps splitting as long as anyone
// is hungry. A worker executes a task by replaying its move sequence
// from the root (re-applying only bookkeeping, no loss evaluations),
// enumerating the subtree, and unwinding the replay for the next task.
//
// Replay is exact because every branch decision in state is a pure
// function of the set-valued bookkeeping (see chooseUncov), so the
// worker reconstructs precisely the node the enqueuer saw. Subtrees
// partition the search tree, so each minimal cover is found exactly
// once; the shared output intern is a lock-free backstop that collapses
// duplicates deterministically should two subtree roots ever overlap,
// and funnels emission so the user callback never runs concurrently.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"adc/internal/bitset"
	"adc/internal/evidence"
)

// moveSkip encodes branch 1 of Figure 4 (do not hit the chosen set) in a
// task path; values >= 0 index the chosen node's candidate list.
const moveSkip int32 = -1

// move is one branch decision of a task path. For a take move, passed
// records — one bit per earlier sibling — which of the node's candidates
// before take survived their crit check when the enqueuing worker ran
// the loop: the serial recursion restores a sibling's cand bit only in
// that case, and carrying the outcomes makes replay O(1) per sibling
// instead of re-running updateCritUncov for each.
type move struct {
	take   int32
	passed []uint64
}

// task identifies one subtree of the search tree as the move sequence
// from the root.
type task struct {
	path []move
}

// seedDepth is the frontier depth of the initial decomposition: the
// coordinator enumerates nodes shallower than this itself and enqueues
// every subtree rooted at exactly this depth.
const seedDepth = 2

// offloadPathCap bounds the path length of dynamically offloaded
// subtrees; deeper subtrees are too small to pay replay plus queue
// traffic.
const offloadPathCap = 16

// queueSlack is extra channel capacity beyond the seed tasks, absorbing
// dynamically offloaded subtrees; submissions finding the queue full run
// inline instead, so the bound never deadlocks.
const queueSlack = 4096

// pool is the shared side of a parallel enumeration: the task queue,
// termination accounting, the output intern, and the merged stats.
type pool struct {
	ch      chan task
	pending atomic.Int64 // queued + running tasks; 0 closes ch
	idle    atomic.Int64 // workers blocked on the queue
	workers int

	intern coverIntern
	emitMu sync.Mutex
	emit   func(bitset.Bits)

	calls, outputs, lossEvals atomic.Int64
}

// hungry reports whether offloading a subtree would likely shorten the
// run: somebody is starving and the queue has nothing for them. The
// empty-queue condition keeps the steal rate proportional to actual
// starvation — every descend re-checks, so one offload per starving
// moment refills the queue quickly without flooding it with subtrees
// that would have been cheaper to recurse inline.
func (p *pool) hungry() bool {
	return len(p.ch) == 0 && p.idle.Load() > 0
}

// submit queues a subtree for another worker; false means the queue was
// full and the caller should recurse inline.
func (p *pool) submit(t task) bool {
	p.pending.Add(1)
	select {
	case p.ch <- t:
		return true
	default:
		p.pending.Add(-1)
		return false
	}
}

// sink receives every cover found by a worker (or the coordinator). The
// intern keeps first-writer-wins ownership of each distinct cover, so
// the emitted set is deterministic regardless of scheduling; emit is
// serialized because callers (and the sequential API) are not required
// to pass a thread-safe callback.
func (p *pool) sink(st *state) {
	if !p.intern.add(st.sBits) {
		return // duplicate cover from an overlapping subtree
	}
	st.stats.Outputs++
	p.emitMu.Lock()
	p.emit(st.sBits)
	p.emitMu.Unlock()
}

// merge folds a worker's private stats into the pool totals at join.
func (p *pool) merge(st *state) {
	p.calls.Add(st.stats.Calls)
	p.outputs.Add(st.stats.Outputs)
	p.lossEvals.Add(st.stats.LossEvals)
}

func (p *pool) stats() Stats {
	return Stats{
		Calls:     p.calls.Load(),
		Outputs:   p.outputs.Load(),
		LossEvals: p.lossEvals.Load(),
	}
}

// enumerateADCParallel runs ADCEnum with the given worker count (> 1).
func enumerateADCParallel(ev *evidence.Set, opts Options, workers int, emit func(hs bitset.Bits)) Stats {
	p := &pool{workers: workers, emit: emit}
	p.intern.init()
	occ := buildOcc(ev)

	// Phase 1: the coordinator enumerates nodes above the frontier and
	// collects the frontier subtrees. The slice (not the channel) holds
	// them so an unexpectedly wide frontier cannot block the seeding.
	var tasks []task
	seed := newState(ev, opts, occ)
	seed.sink = p.sink
	seed.offload = func(m move) bool {
		if len(seed.path)+1 < seedDepth {
			return false
		}
		tasks = append(tasks, task{path: childPath(seed.path, m)})
		return true
	}
	seed.adcEnum()
	p.merge(seed)

	if len(tasks) == 0 {
		return p.stats()
	}

	// Phase 2: workers drain the queue, re-splitting hot subtrees.
	p.ch = make(chan task, len(tasks)+queueSlack)
	p.pending.Store(int64(len(tasks)))
	for _, t := range tasks {
		p.ch <- t
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.runWorker(ev, opts, occ)
		}()
	}
	wg.Wait()
	return p.stats()
}

// childPath snapshots path + m into a fresh slice a task can own. The
// passed masks are deep-copied: live moves alias per-depth pool buffers
// of the offloading worker, which keep mutating after the snapshot.
func childPath(path []move, m move) []move {
	child := make([]move, len(path)+1)
	for i, mv := range path {
		child[i] = cloneMove(mv)
	}
	child[len(path)] = cloneMove(m)
	return child
}

func cloneMove(m move) move {
	if m.passed == nil {
		return m
	}
	words := (int(m.take) + 63) / 64
	if words > len(m.passed) {
		words = len(m.passed)
	}
	cp := make([]uint64, words)
	copy(cp, m.passed[:words])
	return move{take: m.take, passed: cp}
}

// runWorker owns one private state for the whole run, replaying tasks
// against it and unwinding them afterwards, so per-task cost is the
// replay length rather than a full state rebuild.
func (p *pool) runWorker(ev *evidence.Set, opts Options, occ []bitset.Bits) {
	st := newState(ev, opts, occ)
	st.sink = p.sink
	st.path = make([]move, 0, offloadPathCap)
	st.offload = func(m move) bool {
		if len(st.path) >= offloadPathCap || !p.hungry() {
			return false
		}
		return p.submit(task{path: childPath(st.path, m)})
	}
	for {
		p.idle.Add(1)
		t, ok := <-p.ch
		p.idle.Add(-1)
		if !ok {
			break
		}
		st.runTask(t)
		// The last task standing closes the queue; every submit happens
		// while its submitter's task is still pending, so the counter
		// cannot reach zero with work still in flight.
		if p.pending.Add(-1) == 0 {
			close(p.ch)
		}
	}
	p.merge(st)
}

// moveUndo records what applyMove changed, for exact unwinding.
type moveUndo struct {
	take        int32
	removedCand []int   // skip: cand bits cleared
	flipped     []int   // skip: canHit flips
	c           []int   // take: the node's full candidate list
	e           int     // take: chosen element
	variants    []int   // take: operator variants removed from cand
	log         *addLog // take: the kept U/O log
}

// runTask replays the task's move sequence from the root, enumerates the
// subtree, and unwinds the replay so the state is back at the root for
// the next task.
func (st *state) runTask(t task) {
	st.undoBuf = st.undoBuf[:0]
	for _, m := range t.path {
		st.undoBuf = append(st.undoBuf, st.applyMove(m))
	}
	st.path = append(st.path[:0], t.path...)
	st.adcEnum()
	st.path = st.path[:0]
	for i := len(st.undoBuf) - 1; i >= 0; i-- {
		st.undoMove(st.undoBuf[i])
	}
	st.undoBuf = st.undoBuf[:0]
}

// applyMove re-applies the bookkeeping of one branch decision — the
// mutations adcEnum performs on the way into a child — without loss
// evaluations or stats (the enqueuing worker already accounted for this
// node). The choice of F and the candidate list are re-derived, which
// reconstructs the enqueuer's node exactly because both are pure
// functions of the set-valued state; the earlier siblings' crit-check
// outcomes come precomputed in the move's passed mask.
func (st *state) applyMove(m move) moveUndo {
	f := st.chooseUncov(true)
	if f < 0 {
		panic("hitset: replay reached a node with no hittable set")
	}
	if m.take == moveSkip {
		removed := st.candidatesIn(f)
		for _, e := range removed {
			st.cand.Clear(e)
		}
		flipped := st.updateCanHit()
		return moveUndo{take: m.take, removedCand: removed, flipped: flipped}
	}
	c := st.candidatesIn(f)
	if int(m.take) >= len(c) {
		panic(fmt.Sprintf("hitset: replay move %d outside candidate list of %d", m.take, len(c)))
	}
	for _, e := range c {
		st.cand.Clear(e)
	}
	// Earlier siblings leave one permanent trace on the node: serial
	// adcEnum restores a sibling's cand bit only when its crit check
	// passed. The mask carries those outcomes.
	for j := 0; j < int(m.take); j++ {
		if m.passed[j>>6]&(1<<(uint(j)&63)) != 0 {
			st.cand.Set(c[j])
		}
	}
	e := c[m.take]
	log := st.updateCritUncov(e, len(st.s))
	variants := st.removeOperatorVariants(e)
	st.push(e)
	return moveUndo{take: m.take, c: c, e: e, variants: variants, log: log}
}

// undoMove reverses applyMove, restoring the state to the parent node.
func (st *state) undoMove(u moveUndo) {
	if u.take == moveSkip {
		for _, k := range u.flipped {
			st.canHit.Set(k)
		}
		for _, e := range u.removedCand {
			st.cand.Set(e)
		}
		return
	}
	st.pop(u.e)
	for _, m := range u.variants {
		st.cand.Set(m)
	}
	st.undoCritUncov(u.log)
	for _, e := range u.c {
		st.cand.Set(e)
	}
}

// ---- lock-free cover intern -----------------------------------------------

// internBuckets is the fixed bucket count of the cover intern. Buckets
// hold lock-free insert-only lists, so the table tolerates any load
// factor; minimal-cover counts in the millions would merely lengthen
// chains.
const internBuckets = 1 << 12

// coverIntern is a lock-free set of cover bitsets: fixed power-of-two
// bucket array, per-bucket insert-only linked lists, CAS at the head.
// add is linearizable — exactly one caller wins each distinct cover —
// so duplicate covers from overlapping subtrees collapse independently
// of goroutine scheduling.
type coverIntern struct {
	buckets []atomic.Pointer[coverNode]
}

type coverNode struct {
	hash uint64
	bits bitset.Bits
	next *coverNode
}

func (ci *coverIntern) init() {
	ci.buckets = make([]atomic.Pointer[coverNode], internBuckets)
}

// add inserts a clone of hs and reports whether it was absent.
func (ci *coverIntern) add(hs bitset.Bits) bool {
	h := hs.Hash()
	b := &ci.buckets[h&(internBuckets-1)]
	head := b.Load()
	for n := head; n != nil; n = n.next {
		if n.hash == h && n.bits.Equal(hs) {
			return false
		}
	}
	node := &coverNode{hash: h, bits: hs.Clone()}
	for {
		node.next = head
		if b.CompareAndSwap(head, node) {
			return true
		}
		// Lost the race: nodes prepended since our scan are exactly the
		// prefix between the new head and the one we last saw.
		newHead := b.Load()
		for n := newHead; n != head; n = n.next {
			if n.hash == h && n.bits.Equal(hs) {
				return false
			}
		}
		head = newHead
	}
}
