package pli

import (
	"sort"
	"sync"
	"sync/atomic"

	"adc/internal/dataset"
)

// Store is a concurrency-safe, lazily populated cache of per-column
// Indexes over one set of columns. It is the unit of PLI reuse across
// requests: a long-lived session builds each column's index at most
// once and every later constraint check on the same data skips index
// construction entirely. All methods are safe for concurrent use; the
// returned Indexes are immutable and may be read without locking.
type Store struct {
	mu    sync.RWMutex
	cols  []*dataset.Column
	idx   []*Index
	stats []*ColStats // per-column, lazily filled by StatsFor
	hist  []*ColHist  // per-column, lazily filled by HistFor

	hits, misses atomic.Int64
}

// NewStore creates an empty store over the columns. No indexes are
// built until Index is called.
func NewStore(cols []*dataset.Column) *Store {
	return &Store{cols: cols, idx: make([]*Index, len(cols))}
}

// NumColumns returns the number of columns the store covers.
func (s *Store) NumColumns() int { return len(s.cols) }

// Covers reports whether the store caches indexes for exactly these
// columns (by identity). Callers handed a store alongside a possibly
// derived relation — a sample, a copy — use it to detect that the
// cached indexes do not apply.
func (s *Store) Covers(cols []*dataset.Column) bool {
	if len(cols) != len(s.cols) {
		return false
	}
	for i, c := range cols {
		if s.cols[i] != c {
			return false
		}
	}
	return true
}

// Index returns the position list index of the column, building it on
// first use. Concurrent callers of a missing column serialize on the
// build; later callers get the cached index via the read-locked fast
// path.
func (s *Store) Index(col int) *Index {
	s.mu.RLock()
	idx := s.idx[col]
	s.mu.RUnlock()
	if idx != nil {
		s.hits.Add(1)
		return idx
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx[col] == nil {
		s.misses.Add(1)
		s.idx[col] = ForColumn(s.cols[col])
	} else {
		s.hits.Add(1)
	}
	return s.idx[col]
}

// Warm builds the indexes of the given columns (nil means all) in
// parallel with up to workers goroutines (≤ 0 means GOMAXPROCS),
// skipping columns already cached. Builds run outside the lock and are
// published in one critical section; a racing Index call may build the
// same column concurrently, in which case the first published index
// wins and the duplicate work is discarded (both are identical, so
// readers cannot observe a difference). Returns the number of indexes
// this call published.
func (s *Store) Warm(which []int, workers int) int {
	s.mu.RLock()
	missing := make([]int, 0, len(s.idx))
	if which == nil {
		for c, idx := range s.idx {
			if idx == nil {
				missing = append(missing, c)
			}
		}
	} else {
		for _, c := range which {
			if c >= 0 && c < len(s.idx) && s.idx[c] == nil {
				missing = append(missing, c)
			}
		}
	}
	s.mu.RUnlock()
	if len(missing) == 0 {
		return 0
	}
	built := BuildIndexes(s.cols, missing, workers)
	s.mu.Lock()
	defer s.mu.Unlock()
	published := 0
	for _, c := range missing {
		if s.idx[c] == nil {
			s.idx[c] = built[c]
			s.misses.Add(1)
			published++
		}
	}
	return published
}

// Cached reports whether the column's index has been built.
func (s *Store) Cached(col int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx[col] != nil
}

// CachedColumns returns the number of columns with a built index.
func (s *Store) CachedColumns() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, idx := range s.idx {
		if idx != nil {
			n++
		}
	}
	return n
}

// Stats returns the cumulative index lookup hits and misses (a miss is
// a lookup that had to build).
func (s *Store) Stats() (hits, misses int64) {
	return s.hits.Load(), s.misses.Load()
}

// MemBytes estimates the heap footprint of the cached indexes.
func (s *Store) MemBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var b int64
	for _, idx := range s.idx {
		if idx != nil {
			b += idx.MemBytes()
		}
	}
	return b
}

// Extend derives a store over the grown columns — the same relation
// with rows appended after oldRows — reusing as much cached index state
// as possible. Cached indexes are patched copy-on-write: appended rows
// are placed into their value's existing cluster (or, for string
// columns, a fresh cluster appended after the existing ones). A numeric
// index whose appended rows introduce an unseen value cannot be patched
// — the new value would shift every higher cluster's rank — so that
// column is dropped and lazily rebuilt on next use. The receiver is
// left untouched, so in-flight readers of the old store (and the old,
// shorter relation) stay consistent.
//
// patched and dropped count the cached indexes that were carried over
// versus discarded; uncached columns stay uncached and count as
// neither. Hit/miss statistics carry over to the new store.
func (s *Store) Extend(cols []*dataset.Column, oldRows int) (next *Store, patched, dropped int) {
	next = NewStore(cols)
	s.mu.RLock()
	defer s.mu.RUnlock()
	next.hits.Store(s.hits.Load())
	next.misses.Store(s.misses.Load())
	for c, idx := range s.idx {
		if idx == nil || c >= len(cols) {
			continue
		}
		if ext, ok := extendIndex(idx, cols[c], oldRows); ok {
			next.idx[c] = ext
			patched++
		} else {
			dropped++
		}
	}
	return next, patched, dropped
}

// extendIndex places the rows oldRows..c.Len()-1 of the grown column
// into a copy of idx. Cluster slices that do not grow are shared with
// the old index (they are read-only); grown clusters are reallocated.
func extendIndex(idx *Index, c *dataset.Column, oldRows int) (*Index, bool) {
	n := c.Len()
	out := &Index{
		ClusterOf: make([]int32, n),
		Clusters:  append([][]int32(nil), idx.Clusters...),
		Numeric:   idx.Numeric,
	}
	copy(out.ClusterOf, idx.ClusterOf)
	grown := make(map[int32]bool)
	add := func(id int32, row int) {
		if !grown[id] {
			out.Clusters[id] = append([]int32(nil), out.Clusters[id]...)
			grown[id] = true
		}
		out.Clusters[id] = append(out.Clusters[id], int32(row))
		out.ClusterOf[row] = id
	}
	if idx.Numeric {
		out.NumKeys = idx.NumKeys
		for r := oldRows; r < n; r++ {
			v := c.Num(r)
			k := sort.SearchFloat64s(idx.NumKeys, v)
			if k >= len(idx.NumKeys) || idx.NumKeys[k] != v {
				return nil, false // unseen value: dense ranks would shift
			}
			add(int32(k), r)
		}
		out.NumClusters = len(out.Clusters)
		return out, true
	}
	// A column with a dictionary numbers its values densely in
	// first-occurrence order (the dataset constructors, AppendRows and
	// RestoreStringColumn all guarantee it), so a row's code is its
	// cluster ID and a value new to the column takes the next one. A
	// hand-built column without a dictionary is rebuilt instead.
	if _, _, err := c.DictSnapshot(); err != nil {
		return nil, false
	}
	for r := oldRows; r < n; r++ {
		code := c.Codes[r]
		switch {
		case code < 0 || int(code) > len(out.Clusters):
			return nil, false
		case int(code) == len(out.Clusters):
			out.Clusters = append(out.Clusters, nil)
			grown[code] = true // freshly allocated, no sharing to break
		}
		add(code, r)
	}
	out.NumClusters = len(out.Clusters)
	return out, true
}
