package pli

import "adc/internal/dataset"

// ColStats summarizes one column's value distribution for selectivity
// estimation — the statistics the violation-query planner orders
// predicates by. The numbers agree exactly between the two ways of
// producing them: derived from a built Index (Index.Stats) or computed
// from the column without building an index (Store.StatsFor on a cold
// column: a radix ordering of a numeric column, a count of a string
// column's codes), so planning never forces an index build just to
// read a cluster count.
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

// codeStats computes a string column's statistics as Index.Stats
// derives them from its index, by counting its codes.
func codeStats(c *dataset.Column) ColStats {
	st := ColStats{Rows: c.Len()}
	// A dictionary column's codes are dense, so their counts fit an
	// array; a hand-built column's arbitrary codes take a map.
	var counts []int32
	if d, ok := denseCodes(c.Codes); ok {
		counts = make([]int32, d)
		for _, code := range c.Codes {
			counts[code]++
		}
	} else {
		freq := make(map[int32]int32, 64)
		for _, code := range c.Codes {
			freq[code]++
		}
		for _, m := range freq {
			counts = append(counts, m)
		}
	}
	st.Distinct = len(counts)
	for _, m := range counts {
		st.MaxCluster = max(st.MaxCluster, int(m))
		st.EqPairs += int64(m) * int64(m-1)
	}
	return st
}

// numericSummary computes a numeric column's statistics and value
// histogram, exactly as Index.Stats and Index.Hist derive them from
// its index, from the radix ordering the index is carved from
// (sortedKeys): each run of equal keys is a cluster, whose histogram
// key is the value of its first row, as the index keys it (so −0 and
// +0 share a run keyed by the first of them), and each NaN row, sorted
// first, is a singleton left out of the histogram.
func numericSummary(c *dataset.Column) (ColStats, ColHist) {
	n := c.Len()
	st := ColStats{Rows: n}
	keys, order := sortedKeys(c, identity(n))
	for x := range keys {
		if startsValue(keys, x) {
			st.Distinct++
		}
	}
	for st.NaNRows < n && keys[st.NaNRows] == nanKey {
		st.NaNRows++
	}
	st.MaxCluster = min(st.NaNRows, 1)
	h := ColHist{Keys: make([]float64, 0, st.Distinct-st.NaNRows), Counts: make([]int32, 0, st.Distinct-st.NaNRows)}
	for x := st.NaNRows; x < n; {
		y := x + 1
		for y < n && keys[y] == keys[x] {
			y++
		}
		m := y - x
		st.MaxCluster = max(st.MaxCluster, m)
		st.EqPairs += int64(m) * int64(m-1)
		h.Keys = append(h.Keys, c.Num(int(order[x])))
		h.Counts = append(h.Counts, int32(m))
		x = y
	}
	return st, h
}

// summary is one column's statistics and histogram, cached together.
type summary struct {
	stats ColStats
	hist  ColHist
}

// summaryFor returns the column's statistics and histogram, derived
// from the cached index when one is built and computed from the column
// otherwise (a numeric column's both from one ordering) — it never
// triggers an index build. The result is cached, so repeated planning
// against one store pays the column pass at most once per column.
func (s *Store) summaryFor(col int) *summary {
	s.mu.RLock()
	if s.sums != nil && s.sums[col] != nil {
		sum := s.sums[col]
		s.mu.RUnlock()
		return sum
	}
	idx := s.idx[col]
	c := s.cols[col]
	s.mu.RUnlock()

	sum := &summary{}
	switch {
	case idx != nil:
		sum.stats, sum.hist = idx.Stats(), idx.Hist()
	case c.Type.Numeric():
		sum.stats, sum.hist = numericSummary(c)
	default:
		sum.stats = codeStats(c)
	}
	s.mu.Lock()
	if s.sums == nil {
		s.sums = make([]*summary, len(s.cols))
	}
	if s.sums[col] == nil {
		s.sums[col] = sum
	}
	sum = s.sums[col]
	s.mu.Unlock()
	return sum
}

// StatsFor returns the column's statistics (see summaryFor).
func (s *Store) StatsFor(col int) ColStats { return s.summaryFor(col).stats }

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

// HistFor returns the column's value histogram (see summaryFor).
func (s *Store) HistFor(col int) ColHist { return s.summaryFor(col).hist }
