package pli

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// TestQuickStatsPaths: a numeric column's statistics and histogram,
// computed from one radix ordering of its rows, equal exactly what
// Index.Stats and Index.Hist derive from its index, on Float columns
// with NaN, both zeros and duplicates (a histogram key is its cluster's
// first row's value, so −0 and +0 are told apart by bits) and on Int
// columns with values beyond ±2^53, which both sides key by their
// float64 image.
func TestQuickStatsPaths(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	cols := []*dataset.Column{
		dataset.NewFloatColumn("empty", nil),
		dataset.NewFloatColumn("nan", []float64{nan, nan}),
		dataset.NewFloatColumn("zeros", []float64{negZero, 0, nan, 0, negZero}),
		dataset.NewIntColumn("wide", []int64{1<<53 + 1, 1 << 53, math.MaxInt64, math.MaxInt64 - 1}),
	}
	wide := []int64{1 << 53, 1<<53 + 1, 1<<53 + 2, -(1 << 53) - 1, -(1 << 53), math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, 0, -1}
	for seed := int64(0); seed < 80; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(50)
		if seed%2 == 0 {
			fv := make([]float64, n)
			for i := range fv {
				switch r.Intn(7) {
				case 0:
					fv[i] = nan
				case 1:
					fv[i] = negZero
				case 2:
					fv[i] = 0
				default:
					fv[i] = float64(r.Intn(6)) - 2
				}
			}
			cols = append(cols, dataset.NewFloatColumn(fmt.Sprint("f", seed), fv))
		} else {
			iv := make([]int64, n)
			for i := range iv {
				iv[i] = wide[r.Intn(len(wide))]
			}
			cols = append(cols, dataset.NewIntColumn(fmt.Sprint("i", seed), iv))
		}
	}
	for _, c := range cols {
		gotStats, gotHist := numericSummary(c)
		idx := ForColumn(c)
		if want := idx.Stats(); gotStats != want {
			t.Fatalf("%s: column stats %+v != index stats %+v", c.Name, gotStats, want)
		}
		if want := idx.Hist(); !sameHist(gotHist, want) {
			t.Fatalf("%s: column hist %+v != index hist %+v", c.Name, gotHist, want)
		}
	}
}

// sameHist reports whether two histograms hold the same keys, bit for
// bit, and the same counts.
func sameHist(a, b ColHist) bool {
	return slices.EqualFunc(a.Keys, b.Keys, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) &&
		slices.Equal(a.Counts, b.Counts)
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
			if got, want := codeStats(c), ForColumn(c).Stats(); got != want {
				t.Fatalf("n=%d domain=%d: column stats %+v, index stats %+v", n, domain, got, want)
			}
		}
	}
	hand := &dataset.Column{Name: "h", Type: dataset.String, Strings: []string{"x", "y", "x", "z", "x"}}
	hand.Codes = []int32{7, -2, 7, 1 << 30, 7}
	want := ColStats{Rows: 5, Distinct: 3, MaxCluster: 3, EqPairs: 6}
	if got := codeStats(hand); got != want || ForColumn(hand).Stats() != want {
		t.Fatalf("hand-built codes: column stats %+v, index stats %+v, want %+v", got, ForColumn(hand).Stats(), want)
	}
}
