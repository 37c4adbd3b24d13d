package hitset

// Parallel ADCEnum: one worker starts at the root of Figure 4's search
// tree. Each worker owns a state (a node plus its scratch space: undo
// logs, the loss evaluator's workspace), and all share the enumeration's
// index read-only: its order of the distinct sets, occ, the multiplicity
// planes and the flattened vios.
// A worker about to descend into a child while another worker waits on
// an empty queue queues a copy of the child node instead and moves on to
// the child's next sibling; the waiting worker adopts the copy and runs
// adcEnum on it. The recursion restores every node on return, so neither
// side has anything to unwind. The handed-off subtrees partition the
// tree, so every cover is emitted exactly once and the workers' Stats
// sum to the sequential run's.

import (
	"sync"
	"sync/atomic"

	"adc/internal/bitset"
	"adc/internal/evidence"
)

// pool is the shared side of a parallel enumeration.
type pool struct {
	// ch holds the handed-off nodes. A worker offloads only to an empty
	// queue, so it never has more than one node waiting, and a capacity
	// of one per worker means a send never blocks.
	ch      chan *node
	pending atomic.Int64 // nodes queued or being enumerated; 0 closes ch
	idle    atomic.Int64 // workers waiting on ch
}

// offload queues a copy of n for a waiting worker when one is waiting
// and nothing is queued for it yet, and reports whether it did; the
// caller then skips the descent into n.
func (p *pool) offload(n *node) bool {
	if len(p.ch) > 0 || p.idle.Load() == 0 {
		return false
	}
	p.pending.Add(1)
	p.ch <- n.clone()
	return true
}

// done retires one node. The last one closes the queue: a node is queued
// only while its sender's own node is pending, so the count cannot reach
// zero with work in flight.
func (p *pool) done() {
	if p.pending.Add(-1) == 0 {
		close(p.ch)
	}
}

// work enumerates handed-off nodes on st until the queue closes.
func (p *pool) work(st *state) {
	for {
		p.idle.Add(1)
		n, ok := <-p.ch
		p.idle.Add(-1)
		if !ok {
			return
		}
		st.node = *n
		st.adcEnum()
		p.done()
	}
}

// enumerateADCParallel runs ADCEnum on the given number of workers.
func enumerateADCParallel(ev *evidence.Set, opts Options, workers int, emit func(hs bitset.Bits)) Stats {
	p := &pool{ch: make(chan *node, workers)}
	p.pending.Store(1) // the root
	var emitMu sync.Mutex
	serialEmit := func(hs bitset.Bits) {
		emitMu.Lock()
		defer emitMu.Unlock()
		emit(hs)
	}
	ix := newIndex(ev, opts.Func)
	states := make([]*state, workers)
	for w := range states {
		states[w] = newState(ix, opts)
		states[w].emit = serialEmit
		states[w].pool = p
	}
	var wg sync.WaitGroup
	for _, st := range states[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work(st)
		}()
	}
	// The calling goroutine is the first worker and starts at the root.
	states[0].adcEnum()
	p.done()
	p.work(states[0])
	wg.Wait()

	var total Stats
	for _, st := range states {
		total.Calls += st.stats.Calls
		total.Outputs += st.stats.Outputs
		total.LossEvals += st.stats.LossEvals
	}
	return total
}
