// Package pli implements Position List Indexes in the style of Pena et
// al. (DCFinder): for each column, rows are grouped into clusters of
// equal values, and for numeric columns clusters are ordered by value so
// that order comparisons reduce to integer rank comparisons. The
// evidence-set builder (package evidence) uses these indexes to turn
// per-pair predicate evaluation into rank lookups and precomputed bit
// masks, which is what makes evidence construction feasible beyond toy
// sizes (Section 2 of the paper).
package pli

import (
	"runtime"
	"slices"
	"sort"

	"adc/internal/dataset"
	"adc/internal/par"
)

// Index is the position list index of one column. ClusterOf maps each
// row to a dense cluster ID; rows share a cluster iff they hold equal
// values. For numeric columns, cluster IDs increase with the value, so
// ClusterOf doubles as a dense rank and order predicates compare ranks.
type Index struct {
	ClusterOf   []int32
	Clusters    [][]int32
	NumClusters int
	Numeric     bool

	// NumKeys, for numeric columns, holds the distinct column values in
	// ascending order, so NumKeys[c] is the value of cluster c. It lets
	// Store.Extend place appended rows into existing clusters by binary
	// search instead of rebuilding the index.
	NumKeys []float64
	// CodeCluster, for string columns, maps the column's dictionary code
	// of a value to its cluster ID, retained for incremental extension
	// (Store.Extend). nil means identity: the column's codes were
	// already dense in first-occurrence order (every constructor-built
	// column), so cluster id == code for all codes < NumClusters and no
	// map is materialized. Use LookupCode instead of indexing directly.
	CodeCluster map[int32]int32
}

// ForColumn builds the index of a column.
func ForColumn(c *dataset.Column) *Index {
	if c.Type.Numeric() {
		return forNumericColumn(c)
	}
	return forStringColumn(c)
}

// forNumericColumn dense-ranks rows by value via a rank permutation
// sorted with slices.SortFunc (the reflection-based sort.Slice was the
// hottest call in cold index builds). Ties break by row index, so equal
// values list their rows in ascending order deterministically.
func forNumericColumn(c *dataset.Column) *Index {
	n := c.Len()
	idx := &Index{ClusterOf: make([]int32, n), Numeric: true}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = c.Num(i)
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		va, vb := vals[a], vals[b]
		switch {
		case va < vb:
			return -1
		case va > vb:
			return 1
		}
		// Equal, or at least one NaN. NaNs order before every number
		// (and by row among themselves) so the comparator stays a
		// strict weak order — a naive tie-break here would interleave
		// NaNs with numbers and split equal values across clusters.
		if aNaN, bNaN := va != va, vb != vb; aNaN != bNaN {
			if aNaN {
				return -1
			}
			return 1
		}
		return int(a) - int(b)
	})
	// Rows with equal values are adjacent in order; carve the cluster
	// membership lists out of one backing array.
	buf := make([]int32, n)
	copy(buf, order)
	cluster := int32(-1)
	start := 0
	var prev float64
	for k, row := range order {
		if k == 0 || vals[row] != prev {
			if k > 0 {
				idx.Clusters[cluster] = buf[start:k:k]
			}
			cluster++
			start = k
			idx.Clusters = append(idx.Clusters, nil)
			idx.NumKeys = append(idx.NumKeys, vals[row])
			prev = vals[row]
		}
		idx.ClusterOf[row] = cluster
	}
	if n > 0 {
		idx.Clusters[cluster] = buf[start:n:n]
	}
	idx.NumClusters = len(idx.Clusters)
	return idx
}

// forStringColumn groups rows by dictionary code. Columns built by the
// dataset constructors always carry codes in dense first-occurrence
// order, so the common path is a counting sort over codes — no map, no
// comparison sort; a column with arbitrary codes (hand-built) falls
// back to the original map-based renumbering. Both paths produce the
// same Index.
func forStringColumn(c *dataset.Column) *Index {
	n := c.Len()
	codes := c.Codes
	// Verify dense first-occurrence numbering in one pass: every code
	// is either already seen (< next) or exactly the next fresh id.
	next := int32(0)
	for _, code := range codes {
		if code == next {
			next++
		} else if code < 0 || code > next {
			return stringIndexSlow(c)
		}
	}
	numClusters := int(next)
	idx := &Index{
		ClusterOf:   make([]int32, n),
		Clusters:    make([][]int32, numClusters),
		NumClusters: numClusters,
	}
	copy(idx.ClusterOf, codes)
	counts := make([]int32, numClusters)
	for _, code := range codes {
		counts[code]++
	}
	// Carve the membership lists out of one backing array; the fill
	// below writes through buf by absolute index, so the full-length
	// slices can be taken up front.
	buf := make([]int32, n)
	starts := make([]int32, numClusters)
	off := int32(0)
	for k, cnt := range counts {
		starts[k] = off
		idx.Clusters[k] = buf[off : off+cnt : off+cnt]
		off += cnt
	}
	for i, code := range codes {
		buf[starts[code]] = int32(i)
		starts[code]++
	}
	// Codes are their own cluster ids: CodeCluster stays nil (identity)
	// rather than materializing a map per cold build, which would give
	// back the per-distinct map cost the counting sort just removed.
	return idx
}

// LookupCode resolves a dictionary code to its cluster ID, honoring
// the nil-means-identity convention of CodeCluster.
func (idx *Index) LookupCode(code int32) (int32, bool) {
	if idx.CodeCluster == nil {
		if code >= 0 && int(code) < idx.NumClusters {
			return code, true
		}
		return 0, false
	}
	id, ok := idx.CodeCluster[code]
	return id, ok
}

// stringIndexSlow renumbers arbitrary dictionary codes densely in
// first-appearance order (the historical path).
func stringIndexSlow(c *dataset.Column) *Index {
	n := c.Len()
	idx := &Index{ClusterOf: make([]int32, n)}
	remap := make(map[int32]int32)
	for i := 0; i < n; i++ {
		code := c.Codes[i]
		id, ok := remap[code]
		if !ok {
			id = int32(len(remap))
			remap[code] = id
			idx.Clusters = append(idx.Clusters, nil)
		}
		idx.ClusterOf[i] = id
		idx.Clusters[id] = append(idx.Clusters[id], int32(i))
	}
	idx.NumClusters = len(idx.Clusters)
	idx.CodeCluster = remap
	return idx
}

// BuildIndexes builds the indexes of the given columns in parallel
// (which nil means all columns; workers ≤ 0 means GOMAXPROCS). The
// result is indexed by column position, nil for unrequested columns,
// and identical to calling ForColumn per column: each index depends
// only on its own column, so scheduling cannot affect the output.
func BuildIndexes(cols []*dataset.Column, which []int, workers int) []*Index {
	if which == nil {
		which = make([]int, len(cols))
		for i := range which {
			which[i] = i
		}
	} else {
		// Dedup so no column is built by two workers concurrently.
		seen := make(map[int]bool, len(which))
		uniq := which[:0:0]
		for _, c := range which {
			if c >= 0 && c < len(cols) && !seen[c] {
				seen[c] = true
				uniq = append(uniq, c)
			}
		}
		which = uniq
	}
	out := make([]*Index, len(cols))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	par.Do(workers, len(which), func(i int) {
		c := which[i]
		out[c] = ForColumn(cols[c])
	})
	return out
}

// MemBytes estimates the heap footprint of the index, for cache
// accounting: ClusterOf and the cluster entries at 4 bytes per row,
// slice headers, numeric keys, and the code map at a nominal 16 bytes
// per entry.
func (idx *Index) MemBytes() int64 {
	b := int64(len(idx.ClusterOf)) * 4
	b += int64(len(idx.Clusters)) * 24
	for _, cl := range idx.Clusters {
		b += int64(len(cl)) * 4
	}
	b += int64(len(idx.NumKeys)) * 8
	b += int64(len(idx.CodeCluster)) * 16
	return b
}

// MergedRanks dense-ranks two numeric columns within their merged value
// domain, so that comparing row i of a against row j of b reduces to
// comparing ra[i] with rb[j]. Both columns must be numeric.
//
// NaN occurrences follow the per-column index contract (ForColumn, as
// pinned by TestForColumnNaN): every NaN ranks before every number and
// each occurrence gets its own unique rank, so ra[i] == rb[j] never
// holds when either side is NaN — matching Operator.EvalNum, under
// which NaN equals nothing, itself included. (sort.SearchFloat64s
// would instead send every NaN to the same out-of-range rank, making
// all NaNs spuriously equal to each other.)
func MergedRanks(a, b *dataset.Column) (ra, rb []int32) {
	vals := make([]float64, 0, a.Len()+b.Len())
	nans := 0
	for _, c := range []*dataset.Column{a, b} {
		for i := 0; i < c.Len(); i++ {
			if v := c.Num(i); v == v {
				vals = append(vals, v)
			} else {
				nans++
			}
		}
	}
	sort.Float64s(vals)
	distinct := vals[:0]
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			distinct = append(distinct, v)
		}
	}
	// Ranks 0..nans-1 are the NaN occurrences (a's rows first, then
	// b's, each unique); real values start at nans. Appending rows
	// never reorders existing occurrences, so rank comparisons between
	// old rows are stable across appends — the property the evidence
	// delta path relies on.
	nextNaN := int32(0)
	base := int32(nans)
	rank := func(v float64) int32 {
		if v != v {
			r := nextNaN
			nextNaN++
			return r
		}
		return base + int32(sort.SearchFloat64s(distinct, v))
	}
	ra = make([]int32, a.Len())
	for i := range ra {
		ra[i] = rank(a.Num(i))
	}
	rb = make([]int32, b.Len())
	for i := range rb {
		rb[i] = rank(b.Num(i))
	}
	return ra, rb
}

// MergedCodes assigns shared equality codes to two string columns so
// that row i of a equals row j of b iff ca[i] == cb[j].
func MergedCodes(a, b *dataset.Column) (ca, cb []int32) {
	codes := make(map[string]int32)
	code := func(s string) int32 {
		id, ok := codes[s]
		if !ok {
			id = int32(len(codes))
			codes[s] = id
		}
		return id
	}
	ca = make([]int32, len(a.Strings))
	for i, s := range a.Strings {
		ca[i] = code(s)
	}
	cb = make([]int32, len(b.Strings))
	for i, s := range b.Strings {
		cb[i] = code(s)
	}
	return ca, cb
}
