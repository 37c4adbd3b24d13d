package pli

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"adc/internal/dataset"
)

func sortedClusters(idx *Index) [][]int32 {
	out := make([][]int32, len(idx.Clusters))
	for i, cl := range idx.Clusters {
		c := append([]int32(nil), cl...)
		sort.Slice(c, func(a, b int) bool { return c[a] < c[b] })
		out[i] = c
	}
	return out
}

// sameIndex compares two indexes up to intra-cluster row order (the
// rebuild's sort is not stable for equal values).
func sameIndex(t *testing.T, got, want *Index) {
	t.Helper()
	if !reflect.DeepEqual(got.ClusterOf, want.ClusterOf) {
		t.Errorf("ClusterOf = %v, want %v", got.ClusterOf, want.ClusterOf)
	}
	if !reflect.DeepEqual(sortedClusters(got), sortedClusters(want)) {
		t.Errorf("Clusters = %v, want %v", got.Clusters, want.Clusters)
	}
	if got.NumClusters != want.NumClusters {
		t.Errorf("NumClusters = %d, want %d", got.NumClusters, want.NumClusters)
	}
}

func TestStoreLazyBuildAndStats(t *testing.T) {
	cols := []*dataset.Column{
		dataset.NewStringColumn("s", []string{"a", "b", "a", "c"}),
		dataset.NewIntColumn("i", []int64{3, 1, 3, 2}),
	}
	s := NewStore(cols)
	if s.CachedColumns() != 0 {
		t.Fatalf("fresh store has %d cached columns", s.CachedColumns())
	}
	idx := s.Index(0)
	if !s.Cached(0) || s.Cached(1) {
		t.Fatalf("cached flags wrong after one build")
	}
	if again := s.Index(0); again != idx {
		t.Fatalf("second lookup rebuilt the index")
	}
	hits, misses := s.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
	if s.MemBytes() <= 0 {
		t.Fatalf("MemBytes = %d, want > 0", s.MemBytes())
	}
	sameIndex(t, idx, ForColumn(cols[0]))
}

func TestStoreExtendPatchesExistingValues(t *testing.T) {
	oldS := []string{"x", "y", "x", "z"}
	oldI := []int64{10, 20, 10, 30}
	cols := []*dataset.Column{
		dataset.NewStringColumn("s", oldS),
		dataset.NewIntColumn("i", oldI),
	}
	s := NewStore(cols)
	oldStr, oldInt := s.Index(0), s.Index(1)

	// Appended rows: "y"/20 exist; "w" is a new string value (patchable,
	// new cluster at the end); all ints already seen.
	newS := append(append([]string(nil), oldS...), "y", "w")
	newI := append(append([]int64(nil), oldI...), 20, 30)
	grown := []*dataset.Column{
		dataset.NewStringColumn("s", newS),
		dataset.NewIntColumn("i", newI),
	}
	next, patched, dropped := s.Extend(grown, len(oldS))
	if patched != 2 || dropped != 0 {
		t.Fatalf("Extend = (%d patched, %d dropped), want (2, 0)", patched, dropped)
	}
	sameIndex(t, next.Index(0), ForColumn(grown[0]))
	sameIndex(t, next.Index(1), ForColumn(grown[1]))

	// Copy-on-write: the old store still describes the old rows.
	if len(oldStr.ClusterOf) != len(oldS) || len(oldInt.ClusterOf) != len(oldI) {
		t.Fatalf("old indexes grew")
	}
	for _, cl := range oldStr.Clusters {
		for _, r := range cl {
			if int(r) >= len(oldS) {
				t.Fatalf("old string index references appended row %d", r)
			}
		}
	}
	if oldStr.NumClusters != 3 || len(oldStr.Clusters) != 3 {
		t.Fatalf("old string index gained the appended value's cluster")
	}
}

// TestStoreExtendStringClustersAreCodes appends batches mixing known
// and new values, to both a constructed and an ingested (interned)
// column: after every append the extended index must equal a rebuild
// of the grown column, and every row's cluster ID must be its code.
func TestStoreExtendStringClustersAreCodes(t *testing.T) {
	ingested, err := dataset.ReadCSV(strings.NewReader("s\nb\na\nb\n"), "r", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []*dataset.Relation{
		dataset.MustNewRelation("r", []*dataset.Column{dataset.NewStringColumn("s", []string{"b", "a", "b"})}),
		ingested,
	} {
		s := NewStore(rel.Columns)
		s.Index(0)
		for _, batch := range [][]string{{"a", "c"}, {"c", "c"}, {"d", "b", "e", "d"}, {"a"}, {"f"}} {
			recs := make([][]string, len(batch))
			for k, v := range batch {
				recs[k] = []string{v}
			}
			grown, err := rel.AppendRows(recs)
			if err != nil {
				t.Fatal(err)
			}
			next, patched, _ := s.Extend(grown.Columns, rel.NumRows())
			if patched != 1 {
				t.Fatalf("append %v: string index not patched", batch)
			}
			ext := next.Index(0)
			if !reflect.DeepEqual(ext, ForColumn(grown.Columns[0])) {
				t.Fatalf("append %v: extended index differs from a rebuild", batch)
			}
			if !reflect.DeepEqual(ext.ClusterOf, grown.Columns[0].Codes) {
				t.Fatalf("append %v: cluster IDs %v, codes %v", batch, ext.ClusterOf, grown.Columns[0].Codes)
			}
			rel, s = grown, next
		}
	}

	// A hand-built column has no dictionary to vouch for its codes, so
	// its index is dropped and rebuilt, not extended.
	hand := &dataset.Column{Name: "s", Type: dataset.String,
		Strings: []string{"x", "y", "x"}, Codes: []int32{5, 2, 5}}
	s := NewStore([]*dataset.Column{hand})
	s.Index(0)
	grownHand := &dataset.Column{Name: "s", Type: dataset.String,
		Strings: []string{"x", "y", "x", "y"}, Codes: []int32{5, 2, 5, 2}}
	if _, patched, dropped := s.Extend([]*dataset.Column{grownHand}, 3); patched != 0 || dropped != 1 {
		t.Fatalf("hand-built column: Extend = (%d patched, %d dropped), want (0, 1)", patched, dropped)
	}
}

func TestStoreExtendDropsNumericOnNewValue(t *testing.T) {
	oldI := []int64{10, 20, 30}
	cols := []*dataset.Column{dataset.NewIntColumn("i", oldI)}
	s := NewStore(cols)
	s.Index(0)

	newI := append(append([]int64(nil), oldI...), 25) // unseen: ranks shift
	grown := []*dataset.Column{dataset.NewIntColumn("i", newI)}
	next, patched, dropped := s.Extend(grown, len(oldI))
	if patched != 0 || dropped != 1 {
		t.Fatalf("Extend = (%d patched, %d dropped), want (0, 1)", patched, dropped)
	}
	if next.Cached(0) {
		t.Fatalf("dropped column still cached")
	}
	// Lazily rebuilt on demand, over the grown column.
	sameIndex(t, next.Index(0), ForColumn(grown[0]))
}

func TestStoreConcurrentIndex(t *testing.T) {
	vals := make([]int64, 2000)
	for i := range vals {
		vals[i] = int64(i % 37)
	}
	cols := []*dataset.Column{
		dataset.NewIntColumn("a", vals),
		dataset.NewIntColumn("b", vals),
	}
	s := NewStore(cols)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				idx := s.Index(k % 2)
				if idx.NumClusters != 37 {
					t.Errorf("NumClusters = %d, want 37", idx.NumClusters)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.CachedColumns() != 2 {
		t.Fatalf("CachedColumns = %d, want 2", s.CachedColumns())
	}
}
