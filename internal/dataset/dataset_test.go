package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func threeColRelation(t *testing.T) *Relation {
	t.Helper()
	r, err := NewRelation("r", []*Column{
		NewStringColumn("name", []string{"a", "b", "a", "c"}),
		NewIntColumn("age", []int64{30, 25, 30, 41}),
		NewFloatColumn("score", []float64{1.5, 2.5, 1.5, 0.25}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRelationValidation(t *testing.T) {
	if _, err := NewRelation("r", nil); err == nil {
		t.Error("want error for relation with no columns")
	}
	_, err := NewRelation("r", []*Column{
		NewIntColumn("a", []int64{1, 2}),
		NewIntColumn("b", []int64{1}),
	})
	if err == nil {
		t.Error("want error for ragged columns")
	}
	_, err = NewRelation("r", []*Column{
		NewIntColumn("a", []int64{1}),
		NewIntColumn("a", []int64{2}),
	})
	if err == nil {
		t.Error("want error for duplicate column names")
	}
}

func TestColumnAccessors(t *testing.T) {
	r := threeColRelation(t)
	if r.NumRows() != 4 || r.NumColumns() != 3 {
		t.Fatalf("shape = (%d, %d), want (4, 3)", r.NumRows(), r.NumColumns())
	}
	name := r.Column("name")
	if name == nil || name.Type != String {
		t.Fatal("name column missing or mistyped")
	}
	if !name.EqualRows(0, 2) || name.EqualRows(0, 1) {
		t.Error("string equality via codes is wrong")
	}
	age := r.Column("age")
	if age.Compare(0, age, 1) != 1 || age.Compare(1, age, 0) != -1 || age.Compare(0, age, 2) != 0 {
		t.Error("int comparisons wrong")
	}
	if r.Column("missing") != nil || r.ColumnIndex("missing") != -1 {
		t.Error("missing column should be nil / -1")
	}
	if r.ColumnIndex("score") != 2 {
		t.Error("ColumnIndex(score) wrong")
	}
	if got := r.Row(3); got != "(c, 41, 0.25)" {
		t.Errorf("Row(3) = %q", got)
	}
}

func TestDistinctCount(t *testing.T) {
	r := threeColRelation(t)
	for col, want := range map[string]int{"name": 3, "age": 3, "score": 3} {
		if got := r.Column(col).DistinctCount(); got != want {
			t.Errorf("DistinctCount(%s) = %d, want %d", col, got, want)
		}
	}
}

func TestSharedValueFraction(t *testing.T) {
	shared := func(a, b *Column) float64 { return a.ValueCounts().SharedValueFraction(b.ValueCounts()) }
	a := NewIntColumn("a", []int64{1, 2, 3, 4})
	b := NewIntColumn("b", []int64{3, 4, 5, 6})
	if got := shared(a, b); got != 0.5 {
		t.Errorf("numeric shared fraction = %v, want 0.5", got)
	}
	s := NewStringColumn("s", []string{"x", "y", "z"})
	u := NewStringColumn("u", []string{"x", "x", "q"})
	if got := shared(s, u); got < 0.33 || got > 0.34 {
		t.Errorf("string shared fraction = %v, want 1/3", got)
	}
	if got := shared(u, s); got < 0.66 || got > 0.67 {
		t.Errorf("string shared fraction, repeated value = %v, want 2/3", got)
	}
	if got := shared(a, s); got != 0 {
		t.Errorf("cross-kind shared fraction = %v, want 0", got)
	}
	empty := NewIntColumn("e", nil)
	if got := shared(empty, a); got != 0 {
		t.Errorf("empty shared fraction = %v, want 0", got)
	}
	// Int and Float compare as numbers; −0 equals +0; NaN equals nothing,
	// not even another NaN.
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	f := NewFloatColumn("f", []float64{1, 2.5, negZero, nan, nan})
	g := NewFloatColumn("g", []float64{nan, 0, 7})
	if got := shared(f, a); got != 0.2 {
		t.Errorf("float/int shared fraction = %v, want 0.2", got)
	}
	if got := shared(a, f); got != 0.25 {
		t.Errorf("int/float shared fraction = %v, want 0.25", got)
	}
	if got := shared(f, g); got != 0.2 {
		t.Errorf("−0/+0 and NaN shared fraction = %v, want 0.2", got)
	}
	if got := shared(g, f); got < 0.33 || got > 0.34 {
		t.Errorf("+0/−0 and NaN shared fraction = %v, want 1/3", got)
	}
}

func TestProjectAndSample(t *testing.T) {
	r := threeColRelation(t)
	p := r.Project([]int{2, 0})
	if p.NumRows() != 2 {
		t.Fatalf("project rows = %d, want 2", p.NumRows())
	}
	if p.Column("name").Strings[0] != "a" || p.Column("age").Ints[1] != 30 {
		t.Error("projection values wrong")
	}

	rng := rand.New(rand.NewSource(7))
	s := r.Sample(0.5, rng)
	if s.NumRows() != 2 {
		t.Fatalf("sample rows = %d, want 2", s.NumRows())
	}
	if got := r.Sample(1.0, rng); got != r {
		t.Error("full sample should return the relation itself")
	}
	if got := r.Sample(0.01, rng).NumRows(); got != 1 {
		t.Errorf("tiny positive fraction should keep one row, got %d", got)
	}
	if got := r.Sample(-1, rng).NumRows(); got != 0 {
		t.Errorf("negative fraction rows = %d, want 0", got)
	}
}

func TestSampleIsUniformSubset(t *testing.T) {
	r := threeColRelation(t)
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		s := r.Sample(0.75, rand.New(rand.NewSource(seed)))
		// every sampled row must exist in the original
		for i := 0; i < s.NumRows(); i++ {
			found := false
			for j := 0; j < r.NumRows(); j++ {
				if s.Row(i) == r.Row(j) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return s.NumRows() == 3
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadCSVTypeInference(t *testing.T) {
	in := "name,age,score,zip\nalice,30,1.5,02139\nbob,25,2.5,10001\n"
	r, err := ReadCSV(strings.NewReader(in), "people", true)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Type{"name": String, "age": Int, "score": Float, "zip": Int}
	for col, ty := range want {
		c := r.Column(col)
		if c == nil {
			t.Fatalf("missing column %q", col)
		}
		if c.Type != ty {
			t.Errorf("column %q type = %v, want %v", col, c.Type, ty)
		}
	}
	if r.NumRows() != 2 {
		t.Errorf("rows = %d, want 2", r.NumRows())
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	r, err := ReadCSV(strings.NewReader("1,x\n2,y\n"), "r", false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Column("c0") == nil || r.Column("c1") == nil {
		t.Fatal("auto-named columns missing")
	}
	if r.Column("c0").Type != Int || r.Column("c1").Type != String {
		t.Error("inferred types wrong")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"header only": "a,b\n",
		"ragged rows": "a,b\n1,2\n3\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in), "r", true); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}

func TestCSVEmptyCellForcesString(t *testing.T) {
	r, err := ReadCSV(strings.NewReader("a,b\n1,x\n,y\n3,z\n"), "r", true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Column("a").Type != String {
		t.Errorf("column with empty cell should be String, got %v", r.Column("a").Type)
	}
}

func TestWriteCSVRoundTrip(t *testing.T) {
	r := threeColRelation(t)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "r", true)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != r.NumRows() || back.NumColumns() != r.NumColumns() {
		t.Fatal("round trip changed shape")
	}
	for i := 0; i < r.NumRows(); i++ {
		if back.Row(i) != r.Row(i) {
			t.Errorf("row %d: %q != %q", i, back.Row(i), r.Row(i))
		}
	}
}

func TestEqualCross(t *testing.T) {
	a := NewIntColumn("a", []int64{1, 2})
	b := NewFloatColumn("b", []float64{1.0, 3.0})
	if !a.EqualCross(0, b, 0) || a.EqualCross(1, b, 1) {
		t.Error("numeric EqualCross wrong")
	}
	s := NewStringColumn("s", []string{"x"})
	u := NewStringColumn("u", []string{"x"})
	if !s.EqualCross(0, u, 0) {
		t.Error("string EqualCross wrong")
	}
}
