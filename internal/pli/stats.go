package pli

import (
	"sort"

	"adc/internal/dataset"
)

// ColStats summarizes one column's value distribution for selectivity
// estimation — the statistics the violation-query planner orders
// predicates by. The numbers agree exactly between the two ways of
// producing them: derived from a built Index (Index.Stats) or computed
// in one O(n) pass over the column without building an index
// (Store.StatsFor on a cold column), so planning never forces an index
// build just to read a cluster count.
type ColStats struct {
	// Rows is the column length.
	Rows int
	// Distinct is the cluster count (rank cardinality for numeric
	// columns). Each NaN occurrence counts as its own distinct value,
	// matching the index's NaN-singleton contract.
	Distinct int
	// MaxCluster is the size of the largest equal-value cluster.
	MaxCluster int
	// NaNRows is the number of rows holding NaN (0 for non-numeric
	// columns).
	NaNRows int
	// EqPairs is the number of ordered row pairs (i, j), i ≠ j, with
	// equal values: Σ m·(m−1) over cluster sizes m. NaN rows never
	// contribute (NaN equals nothing).
	EqPairs int64
}

// EqFraction returns EqPairs as a fraction of all ordered pairs.
func (st ColStats) EqFraction() float64 {
	n := st.Rows
	if n < 2 {
		return 0
	}
	return float64(st.EqPairs) / (float64(n) * float64(n-1))
}

// Stats derives the column statistics from a built index.
func (idx *Index) Stats() ColStats {
	st := ColStats{Rows: len(idx.ClusterOf), Distinct: idx.NumClusters}
	for k, cl := range idx.Clusters {
		m := len(cl)
		if m > st.MaxCluster {
			st.MaxCluster = m
		}
		st.EqPairs += int64(m) * int64(m-1)
		if idx.Numeric && idx.NumKeys[k] != idx.NumKeys[k] {
			st.NaNRows += m
		}
	}
	return st
}

// statsFromColumn computes the same statistics as Index.Stats in one
// pass over the raw column, without sorting or materializing clusters.
func statsFromColumn(c *dataset.Column) ColStats {
	st := ColStats{Rows: c.Len()}
	if c.Type.Numeric() {
		freq := make(map[float64]int, 64)
		for i := 0; i < st.Rows; i++ {
			v := c.Num(i)
			if v != v {
				st.NaNRows++ // NaN map keys are unreachable; count aside
				continue
			}
			freq[v]++
		}
		// Each NaN row is its own singleton cluster in the index.
		st.Distinct = len(freq) + st.NaNRows
		if st.NaNRows > 0 {
			st.MaxCluster = 1
		}
		for _, m := range freq {
			if m > st.MaxCluster {
				st.MaxCluster = m
			}
			st.EqPairs += int64(m) * int64(m-1)
		}
		return st
	}
	freq := make(map[int32]int, 64)
	for _, code := range c.Codes {
		freq[code]++
	}
	st.Distinct = len(freq)
	for _, m := range freq {
		if m > st.MaxCluster {
			st.MaxCluster = m
		}
		st.EqPairs += int64(m) * int64(m-1)
	}
	return st
}

// StatsFor returns the column's statistics, derived from the cached
// index when one is built and computed directly from the column
// otherwise — it never triggers an index build. Results are cached, so
// repeated planning against one store pays the O(n) pass at most once
// per column.
func (s *Store) StatsFor(col int) ColStats {
	s.mu.RLock()
	if s.stats != nil && s.stats[col] != nil {
		st := *s.stats[col]
		s.mu.RUnlock()
		return st
	}
	idx := s.idx[col]
	c := s.cols[col]
	s.mu.RUnlock()

	var st ColStats
	if idx != nil {
		st = idx.Stats()
	} else {
		st = statsFromColumn(c)
	}
	s.mu.Lock()
	if s.stats == nil {
		s.stats = make([]*ColStats, len(s.cols))
	}
	if s.stats[col] == nil {
		s.stats[col] = &st
	}
	s.mu.Unlock()
	return st
}

// ColHist is a numeric column's sorted value histogram: Keys holds the
// distinct non-NaN values ascending and Counts the matching cluster
// sizes. It is the distribution behind the planner's exact
// order-predicate selectivities — a merge over two histograms counts
// the a>b / a=b value pairs without touching rows. Non-numeric columns
// get an empty histogram (order predicates do not apply to them).
type ColHist struct {
	Keys   []float64
	Counts []int32
}

// Hist derives the value histogram from a built index. The keys alias
// the index's cluster keys (read-only, like every index structure).
func (idx *Index) Hist() ColHist {
	if !idx.Numeric {
		return ColHist{}
	}
	first := 0
	for first < len(idx.NumKeys) && idx.NumKeys[first] != idx.NumKeys[first] {
		first++
	}
	h := ColHist{Keys: idx.NumKeys[first:], Counts: make([]int32, idx.NumClusters-first)}
	for k := first; k < idx.NumClusters; k++ {
		h.Counts[k-first] = int32(len(idx.Clusters[k]))
	}
	return h
}

// histFromColumn computes the same histogram as Index.Hist without an
// index: one counting pass plus a sort of the distinct values.
func histFromColumn(c *dataset.Column) ColHist {
	if !c.Type.Numeric() {
		return ColHist{}
	}
	// ±0 collapse into one map entry (map lookup uses ==), matching the
	// index's single ±0 cluster; NaN rows are skipped, matching the
	// NaN-free RankRows view.
	freq := make(map[float64]int32, 64)
	n := c.Len()
	for i := 0; i < n; i++ {
		v := c.Num(i)
		if v != v {
			continue
		}
		freq[v]++
	}
	h := ColHist{Keys: make([]float64, 0, len(freq)), Counts: make([]int32, 0, len(freq))}
	for v := range freq {
		h.Keys = append(h.Keys, v)
	}
	sort.Float64s(h.Keys)
	for _, v := range h.Keys {
		h.Counts = append(h.Counts, freq[v])
	}
	return h
}

// HistFor returns the column's value histogram, derived from the cached
// index when one is built and computed directly from the column
// otherwise — like StatsFor, it never triggers an index build, and the
// result is cached per column.
func (s *Store) HistFor(col int) ColHist {
	s.mu.RLock()
	if s.hist != nil && s.hist[col] != nil {
		h := *s.hist[col]
		s.mu.RUnlock()
		return h
	}
	idx := s.idx[col]
	c := s.cols[col]
	s.mu.RUnlock()

	var h ColHist
	if idx != nil {
		h = idx.Hist()
	} else {
		h = histFromColumn(c)
	}
	s.mu.Lock()
	if s.hist == nil {
		s.hist = make([]*ColHist, len(s.cols))
	}
	if s.hist[col] == nil {
		s.hist[col] = &h
	}
	s.mu.Unlock()
	return h
}

// RankRows lists the rows of a numeric column's index in ascending
// value order, NaN rows excluded, together with the distinct non-NaN
// keys and per-key offsets: rows[starts[k]:starts[k+1]] holds the rows
// of keys[k]. This is the sorted-rank view the planner's range-probe
// executor walks; a probe value's qualifying rows are one contiguous
// slice found by binary search over keys.
func (idx *Index) RankRows() (rows []int32, keys []float64, starts []int32) {
	first := 0
	for first < len(idx.NumKeys) && idx.NumKeys[first] != idx.NumKeys[first] {
		first++
	}
	keys = idx.NumKeys[first:]
	starts = make([]int32, len(keys)+1)
	total := 0
	for k := first; k < idx.NumClusters; k++ {
		total += len(idx.Clusters[k])
	}
	rows = make([]int32, 0, total)
	for k := first; k < idx.NumClusters; k++ {
		starts[k-first] = int32(len(rows))
		rows = append(rows, idx.Clusters[k]...)
	}
	starts[len(keys)] = int32(len(rows))
	return rows, keys, starts
}
