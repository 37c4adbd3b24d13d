package pli

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"adc/internal/datagen"
	"adc/internal/dataset"
)

// forColumnRef is ForColumn's oracle: the comparator sort for
// numerics (forNumericColumnSort) and map-based renumbering for
// strings.
func forColumnRef(c *dataset.Column) *Index {
	if c.Type.Numeric() {
		return forNumericColumnSort(c)
	}
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
	return idx
}

// forNumericColumnSort is the comparator-sort numeric index the radix
// ordering replaced, kept as its oracle: a rank permutation sorted with
// slices.SortFunc, NaNs first by row, ties by row, clusters carved from
// the sorted permutation.
func forNumericColumnSort(c *dataset.Column) *Index {
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
		if aNaN, bNaN := va != va, vb != vb; aNaN != bNaN {
			if aNaN {
				return -1
			}
			return 1
		}
		return int(a) - int(b)
	})
	cluster := int32(-1)
	start := 0
	var prev float64
	for k, row := range order {
		if k == 0 || vals[row] != prev {
			if k > 0 {
				idx.Clusters[cluster] = order[start:k:k]
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
		idx.Clusters[cluster] = order[start:n:n]
	}
	idx.NumClusters = len(idx.Clusters)
	return idx
}

// mergedRanksSort is MergedRanks as it was before the radix ordering,
// kept as its oracle: the non-NaN values of both columns sorted with
// sort.Float64s and deduplicated, every row binary-searched among them,
// NaN occurrences numbered first, a's then b's.
func mergedRanksSort(a, b *dataset.Column) (ra, rb []int32) {
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
	nextNaN := int32(0)
	rank := func(v float64) int32 {
		if v != v {
			nextNaN++
			return nextNaN - 1
		}
		return int32(nans + sort.SearchFloat64s(distinct, v))
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

// orderingColumns returns numeric columns of n rows in the shapes the
// radix ordering must get right: several NaNs, mixed −0 and +0, ±Inf,
// heavy duplicates, keys differing only in their lowest or highest
// bytes, and Int values beyond ±2^53, which order by their float64
// images (2^53 and 2^53+1 are one value there).
func orderingColumns(rng *rand.Rand, n int) []*dataset.Column {
	nan, negZero, inf := math.NaN(), math.Copysign(0, -1), math.Inf(1)
	floats := func(draw func() float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = draw()
		}
		return v
	}
	ints := func(draw func() int64) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = draw()
		}
		return v
	}
	specials := []float64{nan, negZero, 0, inf, -inf, 1, -1, 0.5, -0.5, math.MaxFloat64, -math.SmallestNonzeroFloat64}
	return []*dataset.Column{
		dataset.NewFloatColumn("specials", floats(func() float64 { return specials[rng.Intn(len(specials))] })),
		dataset.NewFloatColumn("nans", floats(func() float64 {
			if rng.Intn(3) == 0 {
				return nan
			}
			return float64(rng.Intn(5) - 2)
		})),
		dataset.NewFloatColumn("zeros", floats(func() float64 { return []float64{negZero, 0}[rng.Intn(2)] })),
		dataset.NewFloatColumn("dups", floats(func() float64 { return float64(rng.Intn(3)) * 1e6 })),
		dataset.NewFloatColumn("wide", floats(func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)) })),
		dataset.NewFloatColumn("lowbytes", floats(func() float64 { return math.Float64frombits(0x4000_0000_0000_0000 | uint64(rng.Intn(1000))) })),
		dataset.NewIntColumn("ints", ints(func() int64 { return int64(rng.Intn(200) - 100) })),
		dataset.NewIntColumn("bigints", ints(func() int64 {
			return []int64{1 << 53, 1<<53 + 1, 1<<53 + 2, -1 << 53, -1<<53 - 1, math.MaxInt64, math.MinInt64, 0}[rng.Intn(8)]
		})),
	}
}

// sameIndexBits requires got to equal want exactly: ClusterOf, every
// cluster's rows in order, and NumKeys bit for bit, so that a ±0
// cluster keeps the sign of its first row's value.
func sameIndexBits(t *testing.T, label string, got, want *Index) {
	t.Helper()
	if !reflect.DeepEqual(got.ClusterOf, want.ClusterOf) || !reflect.DeepEqual(got.Clusters, want.Clusters) ||
		got.NumClusters != want.NumClusters || got.Numeric != want.Numeric || len(got.NumKeys) != len(want.NumKeys) ||
		(got.NumKeys == nil) != (want.NumKeys == nil) || (got.Clusters == nil) != (want.Clusters == nil) {
		t.Fatalf("%s: index differs from the comparator oracle:\n got %+v\nwant %+v", label, got, want)
	}
	for k := range want.NumKeys {
		if math.Float64bits(got.NumKeys[k]) != math.Float64bits(want.NumKeys[k]) {
			t.Fatalf("%s: NumKeys[%d] = %v, oracle %v", label, k, got.NumKeys[k], want.NumKeys[k])
		}
	}
}

// TestForColumnMatchesSortOracle pins the radix-built numeric index to
// the comparator oracle exactly, on every ordering shape at 0, 1, 2 and
// more rows.
func TestForColumnMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 3, 17, 300, 5000} {
		for trial := 0; trial < 4; trial++ {
			for _, c := range orderingColumns(rng, n) {
				sameIndexBits(t, fmt.Sprintf("%s n=%d", c.Name, n), ForColumn(c), forNumericColumnSort(c))
			}
		}
	}
}

// TestOrderMatchesSortOracle: Order over a subset of rows, given in any
// order, is the comparator sort of those rows, ties in the given order.
func TestOrderMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		for _, c := range orderingColumns(rng, 1+rng.Intn(200)) {
			rows := rng.Perm(c.Len())[:rng.Intn(c.Len()+1)]
			in := make([]int32, len(rows))
			for x, r := range rows {
				in[x] = int32(r)
			}
			keep := slices.Clone(in)
			want := slices.Clone(in)
			slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(c.Num(int(a)), c.Num(int(b))) })
			if got := Order(c, in); !slices.Equal(got, want) {
				t.Fatalf("%s: Order = %v, want %v", c.Name, got, want)
			}
			if !slices.Equal(in, keep) {
				t.Fatalf("%s: Order modified its rows", c.Name)
			}
		}
	}
}

// TestMergedRanksMatchesSortOracle pins MergedRanks to the sort-based
// ranks it replaced, across every pair of ordering shapes.
func TestMergedRanksMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 2, 40, 700} {
		as := orderingColumns(rng, n)
		bs := orderingColumns(rng, max(n/2, 1))
		for _, a := range as {
			for _, b := range bs {
				ra, rb := MergedRanks(a, b)
				wa, wb := mergedRanksSort(a, b)
				if !slices.Equal(ra, wa) || !slices.Equal(rb, wb) {
					t.Fatalf("%s×%s n=%d: ranks %v %v, oracle %v %v", a.Name, b.Name, n, ra, rb, wa, wb)
				}
			}
		}
	}
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
// path and the radix numeric path against forColumnRef on random
// columns.
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

// adultNumeric returns the numeric columns of the 20,000-row adult
// table the root benchmarks ingest.
func adultNumeric(b *testing.B) []*dataset.Column {
	d, err := datagen.ByName("adult", 20000, 1)
	if err != nil {
		b.Fatal(err)
	}
	var cols []*dataset.Column
	for _, c := range d.Rel.Columns {
		if c.Type.Numeric() {
			cols = append(cols, c)
		}
	}
	return cols
}

// BenchmarkPLIBuildNumericAdult indexes adult's numeric columns from
// the radix ordering; CI gates it at three times faster than
// BenchmarkPLIBuildNumericSortAdult, the comparator oracle on the same
// columns.
func BenchmarkPLIBuildNumericAdult(b *testing.B) { benchNumericBuild(b, ForColumn) }

func BenchmarkPLIBuildNumericSortAdult(b *testing.B) { benchNumericBuild(b, forNumericColumnSort) }

func benchNumericBuild(b *testing.B, build func(*dataset.Column) *Index) {
	cols := adultNumeric(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cols {
			build(c)
		}
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
