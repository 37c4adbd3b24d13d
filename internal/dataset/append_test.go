package dataset

import (
	"fmt"
	"math"
	"reflect"
	"slices"
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
// relation from eight goroutines at once, first to a relation never
// appended to (every append copies) and then to ones whose columns
// have a tail they are the newest version of, an appended relation and
// one decoded with room: there, for every column, exactly one result
// must be written in place into that tail and the others copy. Under -race this checks that no append writes to what the
// others read, and each result must match NewStringColumn over its own
// values.
func TestAppendRowsConcurrentSiblings(t *testing.T) {
	// Three distinct values leave the dictionary's values slice with
	// spare capacity that a careless append would write into.
	rel := MustNewRelation("r", []*Column{
		NewStringColumn("City", []string{"A", "B", "C"}),
		NewIntColumn("Zip", []int64{10, 20, 30}),
		NewFloatColumn("Rate", []float64{1.5, 2.5, 3.5}),
	})
	// The first append copies into a tail of exactly its rows and the
	// second grows it, so tip's tail has room after tip's rows.
	tip, err := rel.AppendRows([][]string{{"D", "40", "4.5"}})
	if err == nil {
		tip, err = tip.AppendRows([][]string{{"E", "50", "5.5"}})
	}
	if err != nil {
		t.Fatal(err)
	}
	if cap(tip.Columns[1].tail.ints) == tip.NumRows() {
		t.Fatal("test setup: tip's tail has no room")
	}
	city, err := RestoreStringColumn("City", []string{"A", "B", "C"}, []int32{0, 1, 2}, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	roomy := MustNewRelation("r", []*Column{city, rel.Columns[1].WithRoom(4), rel.Columns[2].WithRoom(4)})
	for _, parent := range []*Relation{rel, tip, roomy} {
		results := make([]*Relation, 8)
		var wg sync.WaitGroup
		for g := range results {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				city := []string{"A", "B", fmt.Sprintf("new-%d", g%3)}
				grown, err := parent.AppendRows([][]string{{city[g%3], "10", "1.5"}, {city[2], "20", "2.5"}})
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = grown
				want := NewStringColumn("City", append(slices.Clone(parent.Columns[0].Strings), city[g%3], city[2]))
				got := grown.Columns[0]
				if !reflect.DeepEqual(got.Strings, want.Strings) || !reflect.DeepEqual(got.Codes, want.Codes) ||
					!reflect.DeepEqual(got.values, want.values) || got.DistinctCount() != want.DistinctCount() {
					t.Errorf("goroutine %d: got %q %v %q, want %q %v %q", g, got.Strings, got.Codes, got.values, want.Strings, want.Codes, want.values)
				}
				if !slices.Equal(grown.Columns[1].Ints, append(slices.Clone(parent.Columns[1].Ints), 10, 20)) ||
					!slices.Equal(grown.Columns[2].Floats, append(slices.Clone(parent.Columns[2].Floats), 1.5, 2.5)) {
					t.Errorf("goroutine %d: numbers %v %v", g, grown.Columns[1].Ints, grown.Columns[2].Floats)
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for j, c := range parent.Columns {
			shared := 0
			for _, res := range results {
				if c.tail != nil && res.Columns[j].tail == c.tail {
					shared++
				}
			}
			want := 0
			if parent != rel {
				want = 1
			}
			if shared != want {
				t.Errorf("%d-row parent, column %q: %d results share its tail, want %d", parent.NumRows(), c.Name, shared, want)
			}
		}
	}
}

// TestAppendedSlicesAreCut pins that every version's slices are cut to
// its own length: a caller appending to an old version's slices gets
// fresh arrays and cannot overwrite the rows a later version wrote in
// place after them.
func TestAppendedSlicesAreCut(t *testing.T) {
	rel := MustNewRelation("r", []*Column{
		NewStringColumn("City", []string{"A", "B"}),
		NewIntColumn("Zip", []int64{10, 20}),
		NewFloatColumn("Rate", []float64{1.5, 2.5}),
	})
	// The first append copies into a tail of exactly its rows, the
	// second grows it: old's arrays have room after its rows.
	old, err := rel.AppendRows([][]string{{"C", "30", "3.5"}})
	if err == nil {
		old, err = old.AppendRows([][]string{{"D", "40", "4.5"}})
	}
	if err != nil {
		t.Fatal(err)
	}
	tip, err := old.AppendRows([][]string{{"A", "50", "5.5"}})
	if err != nil {
		t.Fatal(err)
	}
	if tip.Columns[1].tail != old.Columns[1].tail {
		t.Fatal("test setup: the append was not in place")
	}
	city, zip, rate := old.Columns[0], old.Columns[1], old.Columns[2]
	_, _ = append(city.Strings, "x"), append(city.Codes, 9)
	_, _ = append(zip.Ints, 99), append(rate.Floats, 9.5)
	last := tip.NumRows() - 1
	if got := tip.Columns[0]; got.Strings[last] != "A" || got.Codes[last] != 0 ||
		tip.Columns[1].Ints[last] != 50 || tip.Columns[2].Floats[last] != 5.5 {
		t.Fatalf("the newest row reads %q %d %d %v after appends to the old version's slices, want \"A\" 0 50 5.5",
			got.Strings[last], got.Codes[last], tip.Columns[1].Ints[last], tip.Columns[2].Floats[last])
	}
}

// TestRoomSlicesAreCut is TestAppendedSlicesAreCut for columns decoded
// with room: their own slices must end at their rows, so appending to
// them cannot overwrite the rows an in-place append wrote into the
// room.
func TestRoomSlicesAreCut(t *testing.T) {
	city, err := RestoreStringColumn("City", []string{"A", "B"}, []int32{0, 1, 0}, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	zip := NewIntColumn("Zip", []int64{10, 20, 30}).WithRoom(4)
	rate := NewFloatColumn("Rate", []float64{1.5, 2.5, 3.5}).WithRoom(4)
	rel := MustNewRelation("r", []*Column{city, zip, rate})
	tip, err := rel.AppendRows([][]string{{"B", "50", "5.5"}})
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range rel.Columns {
		if !slices.Equal(Arrays(tip.Columns[j]), Arrays(c)) {
			t.Fatalf("test setup: column %q was not appended in place", c.Name)
		}
	}
	_, _ = append(city.Strings, "x"), append(city.Codes, 9)
	_, _ = append(zip.Ints, 99), append(rate.Floats, 9.5)
	if got := tip.Columns[0]; got.Strings[3] != "B" || got.Codes[3] != 1 ||
		tip.Columns[1].Ints[3] != 50 || tip.Columns[2].Floats[3] != 5.5 {
		t.Fatalf("the appended row reads %q %d %d %v after appends to the restored version's slices, want \"B\" 1 50 5.5",
			got.Strings[3], got.Codes[3], tip.Columns[1].Ints[3], tip.Columns[2].Floats[3])
	}
}

// TestAppendTipWhileOldVersionIsRead reads an old version from two
// goroutines while the newest version, which shares the old one's
// tail, grows by 1,000 batches in place, every fourth with a new
// string value. Under -race this checks that in-place appends write
// only past every older version's rows; the old version's values,
// codes and dictionary must not change.
func TestAppendTipWhileOldVersionIsRead(t *testing.T) {
	const n = 2000
	cities, zips, rates := make([]string, n), make([]int64, n), make([]float64, n)
	for i := range n {
		cities[i], zips[i], rates[i] = fmt.Sprint("c", i%7), int64(i%11), float64(i%5)/2
	}
	base := MustNewRelation("r", []*Column{
		NewStringColumn("City", cities),
		NewIntColumn("Zip", zips),
		NewFloatColumn("Rate", rates),
	})
	// The first append copies into a tail of exactly its rows, the
	// second grows it: old's array has room for the appends after it.
	old, err := base.AppendRows([][]string{{"C", "30", "3.5"}})
	if err == nil {
		old, err = old.AppendRows([][]string{{"D", "40", "4.5"}})
	}
	if err != nil {
		t.Fatal(err)
	}
	city, zip, rate := old.Columns[0], old.Columns[1], old.Columns[2]
	strs, codes, values := slices.Clone(city.Strings), slices.Clone(city.Codes), slices.Clone(city.values)
	ints, floats := slices.Clone(zip.Ints), slices.Clone(rate.Floats)
	unchanged := func() bool {
		v, _, err := city.DictSnapshot()
		return err == nil && slices.Equal(city.Strings, strs) && slices.Equal(city.Codes, codes) &&
			slices.Equal(v, values) && city.DistinctCount() == len(values) &&
			slices.Equal(zip.Ints, ints) && slices.Equal(rate.Floats, floats)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if !unchanged() {
					t.Error("old version changed while the newest appended")
					return
				}
			}
		}()
	}
	tip := old
	for i := 0; i < 1000; i++ {
		s := "A"
		if i%4 == 0 {
			s = fmt.Sprintf("v%d", i)
		}
		if tip, err = tip.AppendRows([][]string{{s, "10", "1.5"}}); err != nil {
			t.Fatal(err)
		}
		if i == 0 && unsafe.SliceData(tip.Columns[1].Ints) != unsafe.SliceData(zip.Ints) {
			t.Fatal("the first append was not in place after the old version's rows")
		}
	}
	close(done)
	wg.Wait()
	if !unchanged() {
		t.Fatal("old version changed")
	}
	if tip.Columns[1].tail != zip.tail {
		t.Fatal("the newest version's appends were not in place")
	}
	want := NewStringColumn("City", tip.Columns[0].Strings)
	if got := tip.Columns[0]; !slices.Equal(got.Codes, want.Codes) || !slices.Equal(got.values, want.values) {
		t.Fatal("newest version's codes or dictionary differ from NewStringColumn")
	}
}

// TestReadCSVColumnsAppendInPlace pins that ingest's columns are born
// with an append tail: the first append to a ReadCSV relation claims
// it, so the column is copied at most once (when append regrows its
// full arrays) instead of first into a fresh tail, and the second
// append writes in place after the first one's rows.
func TestReadCSVColumnsAppendInPlace(t *testing.T) {
	rel, err := ReadCSV(strings.NewReader("City,Zip,Rate\nA,10,1.5\nB,20,2.5\nA,30,3.5\n"), "r", true)
	if err != nil {
		t.Fatal(err)
	}
	first, err := rel.AppendRows([][]string{{"B", "40", "4.5"}})
	if err != nil {
		t.Fatal(err)
	}
	second, err := first.AppendRows([][]string{{"C", "50", "5.5"}})
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range rel.Columns {
		f, s := first.Columns[j], second.Columns[j]
		if c.tail == nil || f.tail != c.tail {
			t.Errorf("column %q: the first append copied the column instead of claiming its tail", c.Name)
		}
		if s.tail != f.tail || !slices.Equal(Arrays(s), Arrays(f)) {
			t.Errorf("column %q: the second append was not in place", c.Name)
		}
	}
	want := MustNewRelation("r", []*Column{
		NewStringColumn("City", []string{"A", "B", "A", "B", "C"}),
		NewIntColumn("Zip", []int64{10, 20, 30, 40, 50}),
		NewFloatColumn("Rate", []float64{1.5, 2.5, 3.5, 4.5, 5.5}),
	})
	for j, w := range want.Columns {
		g := second.Columns[j]
		if !slices.Equal(g.Strings, w.Strings) || !slices.Equal(g.Codes, w.Codes) ||
			!slices.Equal(g.Ints, w.Ints) || !slices.Equal(g.Floats, w.Floats) {
			t.Errorf("column %q: got %q %v %v %v, want %q %v %v %v", w.Name,
				g.Strings, g.Codes, g.Ints, g.Floats, w.Strings, w.Codes, w.Ints, w.Floats)
		}
	}
}
