package pli

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"adc/internal/dataset"
)

func TestStatsForAgreesWithIndex(t *testing.T) {
	nan := math.NaN()
	cols := []*dataset.Column{
		dataset.NewIntColumn("i", []int64{3, 1, 3, 3, 2, 1}),
		dataset.NewFloatColumn("f", []float64{1.5, nan, math.Copysign(0, -1), 0, nan, 1.5}),
		dataset.NewStringColumn("s", []string{"a", "b", "a", "c", "a", "b"}),
	}
	// Cold path: no index built.
	cold := NewStore(cols)
	var coldStats []ColStats
	for c := range cols {
		coldStats = append(coldStats, cold.StatsFor(c))
		if cold.Cached(c) {
			t.Fatalf("StatsFor(%d) forced an index build", c)
		}
	}
	// Warm path: stats derived from built indexes must agree exactly.
	warm := NewStore(cols)
	warm.Warm(nil, 1)
	for c := range cols {
		if got := warm.StatsFor(c); got != coldStats[c] {
			t.Errorf("col %d: index stats %+v != column stats %+v", c, got, coldStats[c])
		}
	}
	// Spot-check the float column: ±0 is one cluster, each NaN its own.
	fs := coldStats[1]
	want := ColStats{Rows: 6, Distinct: 4, MaxCluster: 2, NaNRows: 2, EqPairs: 4}
	if fs != want {
		t.Errorf("float stats %+v, want %+v", fs, want)
	}
	is := coldStats[0]
	want = ColStats{Rows: 6, Distinct: 3, MaxCluster: 3, EqPairs: 8}
	if is != want {
		t.Errorf("int stats %+v, want %+v", is, want)
	}
}

func TestStatsForCached(t *testing.T) {
	c := dataset.NewIntColumn("i", []int64{1, 2, 1})
	s := NewStore([]*dataset.Column{c})
	a := s.StatsFor(0)
	b := s.StatsFor(0)
	if a != b {
		t.Fatalf("cached stats differ: %+v vs %+v", a, b)
	}
}

func TestQuickStatsPaths(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		fv := make([]float64, n)
		for i := range fv {
			switch r.Intn(6) {
			case 0:
				fv[i] = math.NaN()
			case 1:
				fv[i] = math.Copysign(0, -1)
			default:
				fv[i] = float64(r.Intn(6))
			}
		}
		c := dataset.NewFloatColumn("f", fv)
		fromCol := statsFromColumn(c)
		fromIdx := ForColumn(c).Stats()
		if fromCol != fromIdx {
			t.Fatalf("seed %d: column stats %+v != index stats %+v", seed, fromCol, fromIdx)
		}
	}
}

// TestHistForAgreesWithIndex: like StatsFor, the value histogram must
// be identical whether derived from a built index or computed in a
// column pass — including NaN exclusion and the ±0 merge — and must
// never force an index build.
func TestHistForAgreesWithIndex(t *testing.T) {
	nan := math.NaN()
	cols := []*dataset.Column{
		dataset.NewIntColumn("i", []int64{3, 1, 3, 3, 2, 1}),
		dataset.NewFloatColumn("f", []float64{1.5, nan, math.Copysign(0, -1), 0, nan, 1.5}),
		dataset.NewStringColumn("s", []string{"a", "b", "a", "c", "a", "b"}),
	}
	cold := NewStore(cols)
	warm := NewStore(cols)
	for c := range cols {
		warm.Index(c)
	}
	for c := range cols {
		hc, hw := cold.HistFor(c), warm.HistFor(c)
		if !reflect.DeepEqual(hc, hw) {
			t.Errorf("col %d: cold hist %+v != warm hist %+v", c, hc, hw)
		}
		if cold.Cached(c) {
			t.Errorf("col %d: HistFor built an index", c)
		}
	}
	f := cold.HistFor(1)
	if !reflect.DeepEqual(f.Keys, []float64{0, 1.5}) || !reflect.DeepEqual(f.Counts, []int32{2, 2}) {
		t.Errorf("float hist = %+v, want keys [0 1.5] counts [2 2]", f)
	}
	if s := cold.HistFor(2); len(s.Keys) != 0 {
		t.Errorf("string hist not empty: %+v", s)
	}
}

func TestHistForRandomAgreement(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		fv := make([]float64, n)
		for i := range fv {
			switch r.Intn(6) {
			case 0:
				fv[i] = math.NaN()
			case 1:
				fv[i] = math.Copysign(0, -1)
			default:
				fv[i] = float64(r.Intn(8)) - 3
			}
		}
		cols := []*dataset.Column{dataset.NewFloatColumn("f", fv)}
		cold, warm := NewStore(cols), NewStore(cols)
		warm.Index(0)
		if hc, hw := cold.HistFor(0), warm.HistFor(0); !reflect.DeepEqual(hc, hw) {
			t.Fatalf("seed %d: cold %+v != warm %+v", seed, hc, hw)
		}
	}
}

// TestStringStatsMatchIndex: a dictionary column's statistics, counted
// in an array over its dense codes, equal Index.Stats, and so do a
// hand-built column's arbitrary codes, which take the map.
func TestStringStatsMatchIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{0, 1, 2, 50, 3000} {
		for _, domain := range []int{1, 3, 40, 5000} {
			v := make([]string, n)
			for i := range v {
				v[i] = fmt.Sprint(rng.Intn(domain))
			}
			c := dataset.NewStringColumn("s", v)
			if got, want := statsFromColumn(c), ForColumn(c).Stats(); got != want {
				t.Fatalf("n=%d domain=%d: column stats %+v, index stats %+v", n, domain, got, want)
			}
		}
	}
	hand := &dataset.Column{Name: "h", Type: dataset.String, Strings: []string{"x", "y", "x", "z", "x"}}
	hand.Codes = []int32{7, -2, 7, 1 << 30, 7}
	want := ColStats{Rows: 5, Distinct: 3, MaxCluster: 3, EqPairs: 6}
	if got := statsFromColumn(hand); got != want || ForColumn(hand).Stats() != want {
		t.Fatalf("hand-built codes: column stats %+v, index stats %+v, want %+v", got, ForColumn(hand).Stats(), want)
	}
}
