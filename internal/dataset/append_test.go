package dataset

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func appendFixture() *Relation {
	return MustNewRelation("r", []*Column{
		NewStringColumn("City", []string{"A", "B", "A"}),
		NewIntColumn("Zip", []int64{10, 20, 10}),
		NewFloatColumn("Rate", []float64{1.5, 2.5, 1.5}),
	})
}

func TestAppendRows(t *testing.T) {
	rel := appendFixture()
	oldCodes := append([]int32(nil), rel.Columns[0].Codes...)

	grown, err := rel.AppendRows([][]string{
		{"B", "20", "2.5"},
		{"C", "30", "3.5"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 3 {
		t.Fatalf("receiver mutated: %d rows", rel.NumRows())
	}
	if grown.NumRows() != 5 {
		t.Fatalf("grown has %d rows, want 5", grown.NumRows())
	}
	if got := grown.Columns[0].Strings; !reflect.DeepEqual(got, []string{"A", "B", "A", "B", "C"}) {
		t.Errorf("City = %v", got)
	}
	if got := grown.Columns[1].Ints; !reflect.DeepEqual(got, []int64{10, 20, 10, 20, 30}) {
		t.Errorf("Zip = %v", got)
	}
	if got := grown.Columns[2].Floats; !reflect.DeepEqual(got, []float64{1.5, 2.5, 1.5, 2.5, 3.5}) {
		t.Errorf("Rate = %v", got)
	}
	// Dictionary codes of existing rows must be stable (PLI extension
	// depends on it), and the receiver's codes untouched.
	if !reflect.DeepEqual(grown.Columns[0].Codes[:3], oldCodes) {
		t.Errorf("existing codes changed: %v vs %v", grown.Columns[0].Codes[:3], oldCodes)
	}
	if !reflect.DeepEqual(rel.Columns[0].Codes, oldCodes) {
		t.Errorf("receiver codes changed")
	}
}

func TestAppendRowsEmpty(t *testing.T) {
	rel := appendFixture()
	same, err := rel.AppendRows(nil)
	if err != nil || same != rel {
		t.Fatalf("empty append = (%v, %v), want the receiver", same, err)
	}
}

func TestAppendRowsErrors(t *testing.T) {
	rel := appendFixture()
	cases := [][][]string{
		{{"A", "10"}},                   // too few fields
		{{"A", "10", "1.5", "x"}},       // too many fields
		{{"A", "ten", "1.5"}},           // not an int
		{{"A", "10", "one-and-a-half"}}, // not a float
	}
	for _, recs := range cases {
		if _, err := rel.AppendRows(recs); err == nil {
			t.Errorf("AppendRows(%v) succeeded, want error", recs)
		}
	}
	// A hand-built string column carries codes but no dictionary to
	// extend: the append must fail, not panic.
	bare := MustNewRelation("r", []*Column{{Name: "s", Type: String, Strings: []string{"x"}, Codes: []int32{0}}})
	if _, err := bare.AppendRows([][]string{{"y"}}); err == nil {
		t.Errorf("AppendRows onto a column without a dictionary succeeded, want error")
	}
}

func TestMemBytes(t *testing.T) {
	rel := appendFixture()
	if rel.MemBytes() <= 0 {
		t.Fatalf("MemBytes = %d, want > 0", rel.MemBytes())
	}
	grown, err := rel.AppendRows([][]string{{"D", "40", "4.5"}})
	if err != nil {
		t.Fatal(err)
	}
	if grown.MemBytes() <= rel.MemBytes() {
		t.Fatalf("grown relation not larger: %d vs %d", grown.MemBytes(), rel.MemBytes())
	}
}

// TestAppendKeepsInternedMemBytes pins the memory accounting of a
// streamed-ingest relation across an append of known values: every
// appended string aliases its dictionary entry, so the column stays
// interned and grows by exactly one string header and one code per
// row, and a numeric column by one word per row.
func TestAppendKeepsInternedMemBytes(t *testing.T) {
	rel, err := ReadCSV(strings.NewReader("City,Zip,Rate\nann arbor,48104,1.5\nboston,2108,2.5\nann arbor,48104,0.5\n"), "r", true)
	if err != nil {
		t.Fatal(err)
	}
	recs := [][]string{{"boston", "2108", "1.5"}, {"ann arbor", "48104", "2.5"}, {"boston", "2108", "0.5"}, {"boston", "2108", "3.5"}}
	grown, err := rel.AppendRows(recs)
	if err != nil {
		t.Fatal(err)
	}
	if want := rel.MemBytes() + int64(len(recs))*(16+4+8+8); grown.MemBytes() != want {
		t.Fatalf("MemBytes grew %d -> %d, want %d (appended headers, codes and words only)",
			rel.MemBytes(), grown.MemBytes(), want)
	}
	city := grown.Columns[0]
	values, interned, err := city.DictSnapshot()
	if err != nil || !interned {
		t.Fatalf("DictSnapshot = (%v, %v, %v), want an interned column", values, interned, err)
	}
	for i := rel.NumRows(); i < grown.NumRows(); i++ {
		if unsafe.StringData(city.Strings[i]) != unsafe.StringData(values[city.Codes[i]]) {
			t.Errorf("appended row %d does not alias its dictionary string", i)
		}
	}
}

// TestAppendTrimsLikeCSV pins that an appended row is read the way the
// CSV readers read the same row: cells are trimmed before they are
// parsed, so padding neither rejects a number nor adds a string value.
func TestAppendTrimsLikeCSV(t *testing.T) {
	const head = "Zip,State,Rate\n10001,NY,1.5\n90210,CA,2.5\n"
	want, err := ReadCSV(strings.NewReader(head+" 10001 , NY ,\t-0 \n"), "r", true)
	if err != nil {
		t.Fatal(err)
	}
	base, err := ReadCSV(strings.NewReader(head), "r", true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := base.AppendRows([][]string{{" 10001 ", " NY ", "\t-0 "}})
	if err != nil {
		t.Fatal(err)
	}
	for j, w := range want.Columns {
		g := got.Columns[j]
		if g.Type != w.Type || !reflect.DeepEqual(g.Ints, w.Ints) || !reflect.DeepEqual(g.Strings, w.Strings) ||
			!reflect.DeepEqual(g.Codes, w.Codes) || g.DistinctCount() != w.DistinctCount() {
			t.Errorf("column %q: appended %v %v %v, ingested %v %v %v", w.Name,
				g.Ints, g.Strings, g.Codes, w.Ints, w.Strings, w.Codes)
		}
		for i := range w.Floats {
			if math.Float64bits(g.Floats[i]) != math.Float64bits(w.Floats[i]) {
				t.Errorf("column %q row %d: appended %v, ingested %v", w.Name, i, g.Floats[i], w.Floats[i])
			}
		}
	}
}

// TestAppendRowsConcurrentSiblings appends different batches to one
// relation from several goroutines at once. The grown columns share
// the receiver's dictionary until a batch adds a value, so under -race
// this checks that no append writes to what the others read, and each
// result must match NewStringColumn over its own values.
func TestAppendRowsConcurrentSiblings(t *testing.T) {
	// Three distinct values leave the dictionary's values slice with
	// spare capacity that a careless append would write into.
	rel := MustNewRelation("r", []*Column{
		NewStringColumn("City", []string{"A", "B", "C"}),
		NewIntColumn("Zip", []int64{10, 20, 30}),
		NewFloatColumn("Rate", []float64{1.5, 2.5, 3.5}),
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			city := []string{"A", "B", fmt.Sprintf("new-%d", g%3)}
			grown, err := rel.AppendRows([][]string{{city[g%3], "10", "1.5"}, {city[2], "20", "2.5"}})
			if err != nil {
				t.Error(err)
				return
			}
			want := NewStringColumn("City", append(append([]string(nil), rel.Columns[0].Strings...), city[g%3], city[2]))
			got := grown.Columns[0]
			gv, _, _ := got.DictSnapshot()
			wv, _, _ := want.DictSnapshot()
			if !reflect.DeepEqual(got.Strings, want.Strings) || !reflect.DeepEqual(got.Codes, want.Codes) ||
				!reflect.DeepEqual(gv, wv) || got.DistinctCount() != want.DistinctCount() {
				t.Errorf("goroutine %d: got %q %v %q, want %q %v %q", g, got.Strings, got.Codes, gv, want.Strings, want.Codes, wv)
			}
		}(g)
	}
	wg.Wait()
}
