package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adc"
	"adc/internal/colstore"
	"adc/internal/hist"
	"adc/internal/wal"
)

// session is the cached serving state of one registered dataset: the
// relation, its Checker (per-column PLIs, per-DC compiled plans), and
// the mining cache (sampled relations, predicate spaces, evidence
// sets). Requests read the current state under RLock; row appends swap
// in a copy-on-write successor under Lock, so long-running requests
// that captured the old state stay consistent while new requests see
// the grown relation immediately.
type session struct {
	id      string
	name    string
	created time.Time
	golden  []string // golden DCs of a generated dataset, if any

	// appendMu serializes the writers (append, invalidate); mu guards
	// only the pointer swap and reads, so the O(n) copy-on-write
	// derivation of an append never blocks concurrent readers.
	appendMu sync.Mutex
	mu       sync.RWMutex
	checker  *adc.Checker
	mine     *adc.MineCache
	appends  int64

	// evMu guards the evidence-stage observations of this dataset's
	// mining jobs: a latency histogram of the evidence component and
	// the distinct-set count of the latest built evidence set.
	evMu       sync.Mutex
	evHist     *hist.Histogram
	evDistinct int

	// Persistence (nil/zero without a data directory). wal is the
	// session's append log — every acked append batch is one fsynced
	// record, written under appendMu; store points back at the tier for
	// error accounting; snap is the mmap-attached snapshot a restored
	// session aliases, released when the last reference drops.
	wal   *wal.Log
	store *storage
	snap  *colstore.Snapshot

	// degraded latches when a WAL or snapshot write fails (ENOSPC,
	// EIO): the session keeps serving from memory, stops promising
	// durability, and /healthz flags it.
	degraded atomic.Bool

	// refs counts users of the session's mapped memory: the registry
	// holds one reference, every in-flight request or mine job holds
	// another. When the count reaches zero — the registry dropped the
	// session (evict, DELETE) and the last request finished — the mmap
	// and the WAL handle are released. A plain close-on-evict would
	// munmap pages a concurrent validate is still reading.
	refs atomic.Int64
}

func newSession(id, name string, rel *adc.Relation, golden []string) *session {
	s := &session{
		id:      id,
		name:    name,
		created: time.Now(),
		golden:  golden,
		checker: adc.NewChecker(rel),
		mine:    adc.NewMineCache(),
		evHist:  hist.New(),
	}
	s.refs.Store(1) // the registry's reference
	return s
}

// acquire takes a reference for an in-flight user (request handler,
// mine job). Every acquire must be paired with a release.
func (s *session) acquire() *session {
	s.refs.Add(1)
	return s
}

// release drops one reference; the last one out closes the session's
// WAL handle and munmaps its attached snapshot. The registry's own
// reference is dropped by evict/remove, so for a live session this
// never reaches zero.
func (s *session) release() {
	if s.refs.Add(-1) > 0 {
		return
	}
	if s.wal != nil {
		s.wal.Close() //nolint:errcheck // nothing to do at teardown
	}
	if s.snap != nil {
		s.snap.Close() //nolint:errcheck // nothing to do at teardown
	}
}

// observeEvidence records one mining job's evidence-stage duration and
// the distinct-set count of the evidence it used.
func (s *session) observeEvidence(d time.Duration, distinct int) {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	s.evHist.Observe(d)
	s.evDistinct = distinct
}

// evidenceStats is the exported evidence summary of one dataset.
type evidenceStats struct {
	Builds       int64   `json:"builds"`
	DistinctSets int     `json:"distinct_sets"`
	MeanUS       float64 `json:"mean_us"`
	P50US        float64 `json:"p50_us"`
	P99US        float64 `json:"p99_us"`
}

func (s *session) evidenceSnapshot() (evidenceStats, bool) {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	if s.evHist.Count() == 0 {
		return evidenceStats{}, false
	}
	return evidenceStats{
		Builds:       s.evHist.Count(),
		DistinctSets: s.evDistinct,
		MeanUS:       float64(s.evHist.Mean()) / float64(time.Microsecond),
		P50US:        float64(s.evHist.Quantile(0.50)) / float64(time.Microsecond),
		P99US:        float64(s.evHist.Quantile(0.99)) / float64(time.Microsecond),
	}, true
}

// state returns the current checker and mining cache. Both are safe
// for concurrent use and remain valid even if an append supersedes
// them mid-request.
func (s *session) state() (*adc.Checker, *adc.MineCache) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.checker, s.mine
}

// append grows the relation by the given records. Column PLIs are
// patched where the appended values allow and dropped otherwise (see
// pli.Store.Extend); compiled DC plans are recompiled lazily; the
// mining cache survives — its full-relation evidence entries are
// retagged (adc.MineCache.Extend) so the next mine maintains them
// incrementally in O(delta) instead of rebuilding O(n²) evidence.
func (s *session) append(records [][]string) (rows, patched, dropped int, err error) {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	// appendMu makes this read stable: only writers holding it swap the
	// checker, so the expensive derivation can run without blocking the
	// readers going through s.mu.
	s.mu.RLock()
	cur := s.checker
	s.mu.RUnlock()
	next, patched, dropped, err := cur.AppendRows(records)
	if err != nil {
		return 0, 0, 0, err
	}
	// Durability point: the batch's WAL record is on disk (fsynced,
	// unless the tier runs with sync off) before the swap that makes the
	// rows visible and the 200 that acks them. A WAL write failure
	// (ENOSPC, EIO) degrades the session to memory-only serving instead
	// of failing the request — the ack then promises consistency, not
	// durability, and /healthz says so.
	if s.wal != nil && !s.degraded.Load() {
		if werr := s.wal.Append(cur.Relation().NumRows(), records); werr != nil {
			s.degraded.Store(true)
			s.store.noteWALError(werr)
		}
	}
	s.mu.Lock()
	s.checker = next
	s.mine.Extend(cur.Relation(), next.Relation())
	s.appends++
	s.mu.Unlock()
	return next.Relation().NumRows(), patched, dropped, nil
}

// invalidate drops every cached structure, leaving the relation. It is
// the cache-control escape hatch (POST /datasets/{id}/invalidate) and
// the cold half of the serving benchmarks.
func (s *session) invalidate() {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checker = adc.NewChecker(s.checker.Relation())
	s.mine = adc.NewMineCache()
}

// memBytes estimates the session's heap footprint: relation storage
// plus all cached checking and mining state.
func (s *session) memBytes() int64 {
	checker, mine := s.state()
	return checker.Relation().MemBytes() + checker.MemBytes() + mine.MemBytes()
}

// registry is the RWMutex'd session store: id lookup plus an LRU list
// for eviction under the configured session-count and memory caps.
// With a storage tier attached, eviction spills sessions to disk
// (spilled map) instead of discarding them, and get restores spilled
// sessions transparently; spilled sessions count toward neither cap —
// their footprint is disk, not heap.
type registry struct {
	mu          sync.RWMutex
	byID        map[string]*session
	order       []string // least-recently-used first
	nextID      int
	maxSessions int
	maxBytes    int64
	evictions   int64

	store   *storage               // nil: no persistence
	spilled map[string]*spillEntry // sessions living only on disk
}

func newRegistry(maxSessions int, maxBytes int64, store *storage) *registry {
	r := &registry{
		byID:        make(map[string]*session),
		maxSessions: maxSessions,
		maxBytes:    maxBytes,
		store:       store,
	}
	// A restarted server resumes every session its data directory
	// holds: each snapshot becomes a spilled entry restored on first
	// touch, and the id sequence continues past the highest persisted
	// session, so new registrations never collide with restored ones.
	r.spilled, r.nextID = store.scan()
	if r.spilled == nil {
		r.spilled = make(map[string]*spillEntry)
	}
	return r
}

// add registers a session under a fresh id and evicts as needed. With
// storage attached, the new session is snapshotted immediately (before
// any index is built — the spill and append paths re-save with warm
// indexes), so a crash right after registration still restores it.
// The returned session carries a reference; the caller must release it.
func (r *registry) add(name string, rel *adc.Relation, golden []string) (*session, []string) {
	r.mu.Lock()
	r.nextID++
	id := fmt.Sprintf("ds-%d", r.nextID)
	s := newSession(id, name, rel, golden)
	r.byID[id] = s
	r.order = append(r.order, id)
	s.acquire() // the caller's reference
	evicted := r.enforceLocked()
	r.mu.Unlock()
	r.store.save(s) //nolint:errcheck // best-effort; counted in storage stats
	r.store.openWAL(s)
	return s, evicted
}

// get returns the session and marks it most recently used, restoring
// it from its snapshot first if it was spilled to disk. The returned
// session carries a reference; the caller must release it.
func (r *registry) get(id string) *session {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.byID[id]
	if s == nil {
		if _, ok := r.spilled[id]; !ok || r.store == nil {
			return nil
		}
		restored, err := r.store.restore(id)
		if err != nil {
			return nil
		}
		delete(r.spilled, id)
		r.byID[id] = restored
		r.order = append(r.order, id)
		restored.acquire()
		r.enforceLocked() // restoring may push another session out
		return restored
	}
	r.touchLocked(id)
	return s.acquire()
}

// save re-snapshots a session (the append-quiesce path: the relation
// grew, so the on-disk copy is stale).
func (r *registry) save(s *session) {
	r.store.save(s) //nolint:errcheck // best-effort; counted in storage stats
}

func (r *registry) touchLocked(id string) {
	for k, v := range r.order {
		if v == id {
			r.order = append(append(r.order[:k:k], r.order[k+1:]...), id)
			return
		}
	}
}

// remove deletes a session — live or spilled — and its snapshot and
// WAL files; reports whether it existed. The registry's reference is
// dropped, so the mmap and WAL handle close as soon as the last
// in-flight request finishes (immediately, when there is none).
func (r *registry) remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byID[id]
	if !ok {
		if _, spilled := r.spilled[id]; !spilled {
			return false
		}
		delete(r.spilled, id)
		r.store.remove(id)
		return true
	}
	delete(r.byID, id)
	for k, v := range r.order {
		if v == id {
			r.order = append(r.order[:k], r.order[k+1:]...)
			break
		}
	}
	r.store.remove(id)
	s.release()
	return true
}

// list returns the sessions, least recently used first, each carrying
// a reference; the caller must release them (releaseAll).
func (r *registry) list() []*session {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*session, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.byID[id].acquire())
	}
	return out
}

// releaseAll releases the references a list()-style call acquired.
func releaseAll(sessions []*session) {
	for _, s := range sessions {
		s.release()
	}
}

// degraded counts live sessions serving memory-only after a storage
// failure.
func (r *registry) degraded() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, s := range r.byID {
		if s.degraded.Load() {
			n++
		}
	}
	return n
}

// enforce applies the caps (called after appends grow a session).
func (r *registry) enforce() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.enforceLocked()
}

// enforceLocked evicts least-recently-used sessions while over the
// session-count or memory cap. The most recently used session always
// survives, even if it alone exceeds the memory cap — a server that
// evicts its only dataset can serve nothing — and so does any session
// with an in-flight request or mine job (refs above the registry's
// own): evicting one would munmap pages the request is still reading.
// With storage attached, the victim is snapshotted first — capturing
// every index built since the last save — and parked in the spilled
// map, so eviction demotes the session to disk instead of destroying
// it; it restores on next touch without re-ingest or re-indexing.
// Only if the save fails does eviction fall back to discarding (the
// pre-storage behavior). Either way the registry's reference drops,
// closing the victim's mmap and WAL handle.
func (r *registry) enforceLocked() []string {
	var evicted []string
	for len(r.order) > 1 {
		over := r.maxSessions > 0 && len(r.order) > r.maxSessions
		if !over && r.maxBytes > 0 {
			var total int64
			for _, s := range r.byID {
				total += s.memBytes()
			}
			over = total > r.maxBytes
		}
		if !over {
			break
		}
		k := -1
		for i := 0; i < len(r.order)-1; i++ {
			if s := r.byID[r.order[i]]; s != nil && s.refs.Load() == 1 {
				k = i
				break
			}
		}
		if k < 0 {
			break // every candidate is busy; the caps wait for them
		}
		victim := r.order[k]
		s := r.byID[victim]
		r.order = append(r.order[:k], r.order[k+1:]...)
		delete(r.byID, victim)
		r.evictions++
		evicted = append(evicted, victim)
		if r.store != nil && s != nil {
			if err := r.store.save(s); err == nil {
				checker, _ := s.state()
				s.mu.RLock()
				appends := s.appends
				s.mu.RUnlock()
				r.spilled[victim] = &spillEntry{
					name:    s.name,
					rows:    checker.Relation().NumRows(),
					columns: checker.Relation().NumColumns(),
					golden:  s.golden,
					created: s.created.UTC().Format(time.RFC3339Nano),
					appends: appends,
				}
				r.store.mu.Lock()
				r.store.spills++
				r.store.mu.Unlock()
			}
		}
		if s != nil {
			s.release()
		}
	}
	return evicted
}

// spilledViews lists the on-disk sessions for GET /datasets.
func (r *registry) spilledViews() []datasetView {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]datasetView, 0, len(r.spilled))
	for id, e := range r.spilled {
		out = append(out, spillView(id, e))
	}
	return out
}

// storageStats summarizes the persistent tier (zero value when none).
func (r *registry) storageStats() storageStats {
	r.mu.RLock()
	spilled := len(r.spilled)
	r.mu.RUnlock()
	return r.store.stats(spilled, r.degraded())
}

// stats aggregates registry-wide cache statistics for /metrics.
func (r *registry) stats() (sessions int, memBytes int64, planHits, planMisses, indexHits, indexMisses, evictions int64) {
	r.mu.RLock()
	all := make([]*session, 0, len(r.byID))
	for _, s := range r.byID {
		all = append(all, s.acquire())
	}
	evictions = r.evictions
	r.mu.RUnlock()
	defer releaseAll(all)
	sessions = len(all)
	for _, s := range all {
		checker, _ := s.state()
		memBytes += s.memBytes()
		ph, pm := checker.PlanStats()
		ih, im := checker.IndexStats()
		planHits += ph
		planMisses += pm
		indexHits += ih
		indexMisses += im
	}
	return
}

// planShapes aggregates executed plan-shape counts across sessions —
// the per-plan observability that lets mixed validate/mine traffic be
// diagnosed by which plans (groupings or the scan) it actually ran.
func (r *registry) planShapes() map[string]int64 {
	r.mu.RLock()
	all := make([]*session, 0, len(r.byID))
	for _, s := range r.byID {
		all = append(all, s.acquire())
	}
	r.mu.RUnlock()
	defer releaseAll(all)
	total := make(map[string]int64)
	for _, s := range all {
		checker, _ := s.state()
		for shape, n := range checker.PlanShapes() {
			total[shape] += n
		}
	}
	return total
}
