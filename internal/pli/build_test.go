package pli

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"adc/internal/dataset"
)

// forColumnRef is the historical ForColumn: reflection-based sort.Slice
// for numerics, map-based renumbering for strings. The rewrite must
// reproduce it exactly, up to intra-cluster row order (made canonical —
// ascending — by the rewrite; the reference's tie order was whatever
// sort.Slice produced).
func forColumnRef(c *dataset.Column) *Index {
	n := c.Len()
	idx := &Index{ClusterOf: make([]int32, n), Numeric: c.Type.Numeric()}
	if idx.Numeric {
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			vals[i] = c.Num(i)
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })
		cluster := int32(-1)
		var prev float64
		for k, row := range order {
			if k == 0 || vals[row] != prev {
				cluster++
				idx.Clusters = append(idx.Clusters, nil)
				idx.NumKeys = append(idx.NumKeys, vals[row])
				prev = vals[row]
			}
			idx.ClusterOf[row] = cluster
			idx.Clusters[cluster] = append(idx.Clusters[cluster], int32(row))
		}
		idx.NumClusters = len(idx.Clusters)
		return idx
	}
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
	return idx
}

func indexEqualCanonical(t *testing.T, label string, got, want *Index) {
	t.Helper()
	if got.NumClusters != want.NumClusters || got.Numeric != want.Numeric {
		t.Fatalf("%s: header (%d,%v), want (%d,%v)", label,
			got.NumClusters, got.Numeric, want.NumClusters, want.Numeric)
	}
	if !reflect.DeepEqual(got.ClusterOf, want.ClusterOf) {
		t.Fatalf("%s: ClusterOf differs", label)
	}
	if !reflect.DeepEqual(got.NumKeys, want.NumKeys) {
		t.Fatalf("%s: NumKeys differs", label)
	}
	if len(got.Clusters) != len(want.Clusters) {
		t.Fatalf("%s: cluster count differs", label)
	}
	for id := range want.Clusters {
		a := append([]int32(nil), got.Clusters[id]...)
		b := append([]int32(nil), want.Clusters[id]...)
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: cluster %d membership differs", label, id)
		}
	}
}

func randomColumns(rng *rand.Rand, n int) []*dataset.Column {
	ints := make([]int64, n)
	floats := make([]float64, n)
	strs := make([]string, n)
	for i := 0; i < n; i++ {
		ints[i] = int64(rng.Intn(20) - 10)
		floats[i] = float64(rng.Intn(40)) / 4
		strs[i] = string(rune('a' + rng.Intn(12)))
	}
	return []*dataset.Column{
		dataset.NewIntColumn("i", ints),
		dataset.NewFloatColumn("f", floats),
		dataset.NewStringColumn("s", strs),
	}
}

// TestForColumnMatchesReference cross-checks the counting-sort string
// path and the slices.SortFunc numeric path against the historical
// implementation on random columns.
func TestForColumnMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		for _, c := range randomColumns(rng, 1+rng.Intn(150)) {
			indexEqualCanonical(t, c.Name, ForColumn(c), forColumnRef(c))
		}
	}
}

// TestForColumnRowsAscending pins the canonical intra-cluster order the
// rewrite guarantees: rows listed ascending within every cluster, for
// both column kinds.
func TestForColumnRowsAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range randomColumns(rng, 200) {
		idx := ForColumn(c)
		for id, rows := range idx.Clusters {
			for k := 1; k < len(rows); k++ {
				if rows[k-1] >= rows[k] {
					t.Fatalf("%s: cluster %d rows not ascending", c.Name, id)
				}
			}
		}
	}
}

// TestStringFallbackPath drives the non-dense-code fallback: a column
// whose Codes were hand-assembled out of first-occurrence order must
// still index correctly via the map path.
func TestStringFallbackPath(t *testing.T) {
	c := &dataset.Column{Name: "s", Type: dataset.String,
		Strings: []string{"x", "y", "x", "z"}}
	c.Codes = []int32{5, 2, 5, 9} // arbitrary, not dense
	got := ForColumn(c)
	want := forColumnRef(c)
	indexEqualCanonical(t, "fallback", got, want)
	if !reflect.DeepEqual(got.ClusterOf, []int32{0, 1, 0, 2}) {
		t.Fatalf("fallback renumbering wrong: ClusterOf = %v, want [0 1 0 2]", got.ClusterOf)
	}
}

// TestForColumnNaN pins the NaN ordering contract: NaN rows sort
// before every number (each its own cluster, since NaN != NaN under
// EqualRows too), and — the part a naive tie-break got wrong — rows
// holding equal non-NaN values still share one cluster.
func TestForColumnNaN(t *testing.T) {
	nan := math.NaN()
	c := dataset.NewFloatColumn("f", []float64{1, nan, 1, 2, nan})
	idx := ForColumn(c)
	if idx.ClusterOf[0] != idx.ClusterOf[2] {
		t.Fatalf("equal values split across clusters: %v", idx.ClusterOf)
	}
	if idx.NumClusters != 4 {
		t.Fatalf("NumClusters = %d, want 4 (two NaN singletons + {1,1} + {2})", idx.NumClusters)
	}
	if idx.ClusterOf[1] == idx.ClusterOf[4] {
		t.Fatalf("distinct NaN rows share a cluster: %v", idx.ClusterOf)
	}
	// NaNs first, then values ascending: the numeric clusters keep
	// rank semantics among real numbers.
	if !(idx.ClusterOf[0] < idx.ClusterOf[3]) {
		t.Fatalf("rank order broken: %v", idx.ClusterOf)
	}
	if v := idx.NumKeys[idx.ClusterOf[3]]; v != 2 {
		t.Fatalf("NumKeys misaligned: %v", idx.NumKeys)
	}
}

// TestBuildIndexesParallel checks that the parallel builder returns
// per-column results identical to serial ForColumn, for full and
// partial column sets, with duplicate requests tolerated.
func TestBuildIndexesParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cols := randomColumns(rng, 500)
	want := make([]*Index, len(cols))
	for i, c := range cols {
		want[i] = ForColumn(c)
	}
	for _, workers := range []int{1, 2, 8} {
		got := BuildIndexes(cols, nil, workers)
		for i := range cols {
			indexEqualCanonical(t, cols[i].Name, got[i], want[i])
		}
	}
	partial := BuildIndexes(cols, []int{2, 0, 2, -1, 99}, 4)
	if partial[1] != nil {
		t.Fatal("unrequested column was built")
	}
	indexEqualCanonical(t, "partial0", partial[0], want[0])
	indexEqualCanonical(t, "partial2", partial[2], want[2])
}

// TestStoreWarm checks parallel prewarming: all indexes built, misses
// counted once each, and later Index calls are hits.
func TestStoreWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cols := randomColumns(rng, 300)
	s := NewStore(cols)
	if built := s.Warm(nil, 8); built != len(cols) {
		t.Fatalf("Warm built %d, want %d", built, len(cols))
	}
	if s.CachedColumns() != len(cols) {
		t.Fatalf("cached %d, want %d", s.CachedColumns(), len(cols))
	}
	for i := range cols {
		indexEqualCanonical(t, cols[i].Name, s.Index(i), ForColumn(cols[i]))
	}
	hits, misses := s.Stats()
	if misses != int64(len(cols)) || hits != int64(len(cols)) {
		t.Fatalf("stats hits=%d misses=%d, want %d/%d", hits, misses, len(cols), len(cols))
	}
	if built := s.Warm(nil, 8); built != 0 {
		t.Fatalf("second Warm built %d, want 0", built)
	}
}

// ---- Micro-benchmarks: old grouping machinery vs new ---------------------

func benchColumn(kind string, n int) *dataset.Column {
	rng := rand.New(rand.NewSource(9))
	switch kind {
	case "int":
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(rng.Intn(n / 4))
		}
		return dataset.NewIntColumn("i", v)
	default:
		v := make([]string, n)
		for i := range v {
			v[i] = "v" + string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
		}
		return dataset.NewStringColumn("s", v)
	}
}

func BenchmarkForColumnNumeric(b *testing.B) {
	c := benchColumn("int", 20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ForColumn(c)
	}
}

func BenchmarkForColumnNumericRef(b *testing.B) {
	c := benchColumn("int", 20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		forColumnRef(c)
	}
}

func BenchmarkForColumnString(b *testing.B) {
	c := benchColumn("str", 20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ForColumn(c)
	}
}

func BenchmarkForColumnStringRef(b *testing.B) {
	c := benchColumn("str", 20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		forColumnRef(c)
	}
}
