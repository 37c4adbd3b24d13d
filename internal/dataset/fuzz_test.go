package dataset_test

import (
	"encoding/csv"
	"errors"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"adc/internal/dataset"
)

// FuzzReadCSVStream differentially fuzzes the streaming chunk-parallel
// reader against the buffered csv.ReadAll oracle: on every input —
// ragged rows, empty cells, type-flip columns, CRLF, quotes, whatever
// the fuzzer invents — both must agree on accept/reject, and on accept
// the parsed relations must match cell for cell. On reject both must
// report the same text, with one exception: the buffered reader reads
// the whole file before validating row widths, so when an input has a
// width error before its first CSV syntax error the streaming reader
// reports the width error (the first error in input order) and the
// oracle the syntax error. So a syntax error (*csv.ParseError) from the
// streaming reader, and any error the oracle reports that is not one,
// must match the oracle's text exactly.
func FuzzReadCSVStream(f *testing.F) {
	seeds := []string{
		"a,b\n1,2\n3,4\n",
		"a,b\n1,x\n,y\n3,z\n",   // empty cell forces String
		"a,b\n1,2\n3\n",         // ragged
		"a,b\r\n1,x\r\n2,y\r\n", // CRLF
		"a\n1\n2\n3.5\nx\n",     // Int → Float → String flips
		"c\n\"quoted,comma\"\n\"line\nfeed\"\n",
		"a,b\n +1 ,\t-0\n-2,0\n1.5,2\n",      // signs, whitespace, neg zero
		"a\n9223372036854775808\n1\n",        // int64 overflow → Float
		"a\nnan\ninf\n-Inf\n1e308\n0x1p-3\n", // float spellings
		"s\nx\ny\nx\nz\nx\n",                 // dictionary dedup
		"a,a\n1,2\n",                         // duplicate column names
		"\xc2\xa0x\n1\n",                     // non-ASCII whitespace in cells
		"a,b\n\"unterminated\n",              // CSV syntax error
		"",
		"h\n",
	}
	for _, s := range seeds {
		f.Add(s, true, uint8(3), uint8(7))
		f.Add(s, false, uint8(1), uint8(1))
	}
	f.Fuzz(func(t *testing.T, in string, header bool, workers, chunkBytes uint8) {
		opt := dataset.IngestOptions{
			Workers:    int(workers%8) + 1,
			ChunkBytes: int(chunkBytes%64) + 1,
		}
		want, wantErr := dataset.ReadCSVBuffered(strings.NewReader(in), "f", header)
		got, gotErr := dataset.ReadCSVOptions(strings.NewReader(in), "f", header, opt)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("accept/reject mismatch (%+v): buffered err=%v, streaming err=%v", opt, wantErr, gotErr)
		}
		if wantErr != nil {
			var pe *csv.ParseError
			if (errors.As(gotErr, &pe) || !errors.As(wantErr, &pe)) && gotErr.Error() != wantErr.Error() {
				t.Fatalf("error mismatch (%+v):\n buffered:  %v\n streaming: %v", opt, wantErr, gotErr)
			}
			return
		}
		if got.NumRows() != want.NumRows() || got.NumColumns() != want.NumColumns() {
			t.Fatalf("shape mismatch (%+v)", opt)
		}
		for j, w := range want.Columns {
			g := got.Columns[j]
			if g.Name != w.Name || g.Type != w.Type {
				t.Fatalf("column %d: (%q,%v) vs (%q,%v)", j, g.Name, g.Type, w.Name, w.Type)
			}
			if !reflect.DeepEqual(g.Ints, w.Ints) || !reflect.DeepEqual(g.Strings, w.Strings) ||
				!reflect.DeepEqual(g.Codes, w.Codes) {
				t.Fatalf("column %q values differ", w.Name)
			}
			for i := range g.Floats {
				a, b := g.Floats[i], w.Floats[i]
				if a != b && !(a != a && b != b) { // bitwise-ish: NaN matches NaN
					t.Fatalf("column %q row %d: %v vs %v", w.Name, i, a, b)
				}
			}
			// Sign of zero must survive the int-chunk re-parse path.
			for i := range g.Floats {
				if g.Floats[i] == 0 && w.Floats[i] == 0 {
					if (1/g.Floats[i] < 0) != (1/w.Floats[i] < 0) {
						t.Fatalf("column %q row %d: zero sign differs", w.Name, i)
					}
				}
			}
		}
	})
}

// Cell pools FuzzAppendRows draws from, one per column of its Int,
// Float, String schema: signs, padding, NaN and infinity spellings,
// empty and whitespace-only cells, and cells the column type rejects.
var (
	fuzzIntCells   = []string{"0", "-0", "7", " 7", "-3\t", "9223372036854775807", "x", ""}
	fuzzFloatCells = []string{"0", "-0", " -0 ", "NaN", "nan", " -Inf", "1.5", "1e308 ", "", "x"}
	fuzzStrCells   = []string{"", " ", "\t", "x", " x", "x ", "y", "NaN", "-0", " y", "z z"}
)

// FuzzAppendRows differentially fuzzes Relation.AppendRows against a
// from-scratch oracle. Every version any append returns must equal,
// until the run ends, the columns the constructors build over its
// concatenated (trimmed) values — NewStringColumn for the string
// column — in values, codes, dictionary, distinct count and MemBytes
// (and MemBytes its walk). A batch with a cell the column type rejects
// must fail and change nothing, so the version it was appended to
// stays appendable in place. Two lines grow side by side from one base:
// a plain one and a twin whose string column starts interned, which
// must keep every row aliased to its dictionary string and stay
// interned until a batch adds a value.
//
// The first byte gives the base's row count; if its high bit is set,
// the next byte gives a room of 0–7 rows, and each line's base columns
// are decoded as a snapshot restore decodes them with room for a log
// (WithRoom, RestoreStringColumn): with room 0 they view the base's
// slices, otherwise each line's columns own arrays with that much
// spare capacity in a tail of their own. Each step reads a batch-size
// byte whose higher bits pick the step:
// 0 appends to both lines and then the same batch reversed, as a
// sibling, to the plain line's receiver; 1 appends that sibling first,
// so the main line loses the receiver's tail to it; 2 appends to a
// version drawn from every one returned so far, usually an old one the
// newest has moved past; 3 appends to both lines only. A model of the
// tails (the rows each has claimed, and the capacity of those whose
// arrays have not regrown since it was known) predicts every append:
// in place into the receiver's tail when the receiver is that tail's
// newest version, into the receiver's very arrays while the capacity
// lasts, else a copy into a fresh one.
func FuzzAppendRows(f *testing.F) {
	f.Add([]byte{3, 2, 3, 4, 5, 6, 7, 0, 1, 2, 2, 9, 8, 7, 1, 1, 1})
	f.Add([]byte{0, 1, 0, 3, 10, 2, 2, 2, 4, 4, 4})
	f.Add([]byte{2, 0, 0, 0, 1, 1, 1, 1, 6, 0, 0})
	f.Add([]byte{4, 5, 4, 1, 3, 5, 2, 0, 0, 0, 7, 8, 9, 3, 1, 1, 5, 3, 6, 6, 1, 0, 0, 0})
	f.Add([]byte{2, 2, 6, 3, 2, 6, 6, 5, 1, 1, 3, 10, 2, 2, 1, 9, 2, 13, 1, 1, 3, 14, 3, 3, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		cells := func() []string {
			return []string{
				fuzzIntCells[next()%len(fuzzIntCells)],
				fuzzFloatCells[next()%len(fuzzFloatCells)],
				fuzzStrCells[next()%len(fuzzStrCells)],
			}
		}
		// The base relation keeps its string cells as given (untrimmed)
		// and maps numeric cells its type rejects to zero.
		var ints []int64
		var floats []float64
		var strs []string
		first := next()
		room := -1
		if first >= 0x80 {
			room = next() % 8
		}
		for n := first % 6; n > 0; n-- {
			rec := cells()
			x, _ := strconv.ParseInt(strings.TrimSpace(rec[0]), 10, 64)
			y, _ := strconv.ParseFloat(strings.TrimSpace(rec[1]), 64)
			ints, floats, strs = append(ints, x), append(floats, y), append(strs, rec[2])
		}
		base := []*dataset.Column{
			dataset.NewIntColumn("i", ints),
			dataset.NewFloatColumn("f", floats),
			dataset.NewStringColumn("s", strs),
		}
		values, _, err := base[2].DictSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		// line returns one line's base columns: base itself, or decoded
		// with room.
		line := func(interned bool) []*dataset.Column {
			if room < 0 && !interned {
				return base
			}
			r := max(room, 0)
			s, err := dataset.RestoreStringColumn("s", values, base[2].Codes, interned, r)
			if err != nil {
				t.Fatal(err)
			}
			return []*dataset.Column{base[0].WithRoom(r), base[1].WithRoom(r), s}
		}
		root := fuzzVersion{ints: ints, floats: floats, strs: strs, tail: -1}
		plain, twin := root, root
		plain.rel = dataset.MustNewRelation("r", line(false))
		twin.rel = dataset.MustNewRelation("r", line(true))
		twin.interned = true
		versions := []*fuzzVersion{&plain, &twin}
		var tails []fuzzTail
		if room > 0 {
			n := len(ints)
			plain.tail, twin.tail = 0, 1
			tails = []fuzzTail{{rows: n, cap: n + room}, {rows: n, cap: n + room}}
		}
		cur := [2]*fuzzVersion{&plain, &twin}

		// grow appends recs to v, checks the outcome against the model
		// and the oracle, and records the new version.
		grow := func(v *fuzzVersion, recs [][]string) *fuzzVersion {
			got, err := v.rel.AppendRows(recs)
			if len(recs) == 0 {
				if got != v.rel || err != nil {
					t.Fatalf("empty append = (%p, %v), want the receiver %p", got, err, v.rel)
				}
				return v
			}
			if rejects(recs) {
				if err == nil {
					t.Fatalf("AppendRows(%q) accepted a cell its column rejects", recs)
				}
				return v
			}
			if err != nil {
				t.Fatalf("AppendRows(%q): %v", recs, err)
			}
			g := v.child(got, recs)
			m := got.NumRows()
			inPlace := v.tail >= 0 && tails[v.tail].rows == v.rel.NumRows()
			sameArrays := inPlace && m <= tails[v.tail].cap
			if inPlace {
				g.tail = v.tail
				if !sameArrays {
					tails[g.tail].cap = -1 // append regrew the arrays
				}
			} else {
				g.tail = len(tails)
				tails = append(tails, fuzzTail{cap: m})
			}
			tails[g.tail].rows = m
			for j, c := range got.Columns {
				if dataset.SharesTail(c, v.rel.Columns[j]) != inPlace {
					t.Fatalf("append of %q to a %d-row version: column %q in place %v, want %v",
						recs, v.rel.NumRows(), c.Name, !inPlace, inPlace)
				}
				if sameArrays && !slices.Equal(dataset.Arrays(c), dataset.Arrays(v.rel.Columns[j])) {
					t.Fatalf("append of %q to a %d-row version: column %q left arrays with room for it",
						recs, v.rel.NumRows(), c.Name)
				}
			}
			g.check(t)
			versions = append(versions, g)
			return g
		}
		// Every version is checked, so the steps are capped to keep an
		// execution's cost independent of the input's length.
		for step := 0; step < 64 && len(data) > 0; step++ {
			b := next()
			recs := make([][]string, b%4)
			for k := range recs {
				recs[k] = cells()
			}
			reversed := slices.Clone(recs)
			slices.Reverse(reversed)
			switch op := b / 4 % 4; op {
			case 0, 1, 3:
				if op == 1 {
					grow(cur[0], reversed)
				}
				prev := cur[0]
				cur[0], cur[1] = grow(cur[0], recs), grow(cur[1], recs)
				if op == 0 {
					grow(prev, reversed)
				}
			case 2:
				grow(versions[next()%len(versions)], recs)
			}
		}
		for _, v := range versions {
			v.check(t)
		}
	})
}

// fuzzTail is FuzzAppendRows's model of an append tail: the rows it
// has claimed and the capacity of its arrays, or -1 once an append has
// regrown them.
type fuzzTail struct {
	rows, cap int
}

// fuzzVersion is one relation FuzzAppendRows holds, with the oracle's
// values for it, whether its string column must be interned, and the
// model tail its columns were cut from (-1 before any append).
type fuzzVersion struct {
	rel      *dataset.Relation
	ints     []int64
	floats   []float64
	strs     []string
	interned bool
	tail     int
}

// rejects reports whether a column's type rejects a cell of recs.
func rejects(recs [][]string) bool {
	for _, rec := range recs {
		_, ierr := strconv.ParseInt(strings.TrimSpace(rec[0]), 10, 64)
		_, ferr := strconv.ParseFloat(strings.TrimSpace(rec[1]), 64)
		if ierr != nil || ferr != nil {
			return true
		}
	}
	return false
}

// child is v grown by recs into rel: the oracle's values extended by
// the parsed, trimmed cells, interned while no cell is a new value.
func (v *fuzzVersion) child(rel *dataset.Relation, recs [][]string) *fuzzVersion {
	g := &fuzzVersion{rel: rel, ints: slices.Clone(v.ints), floats: slices.Clone(v.floats),
		strs: slices.Clone(v.strs), interned: v.interned}
	for _, rec := range recs {
		x, _ := strconv.ParseInt(strings.TrimSpace(rec[0]), 10, 64)
		y, _ := strconv.ParseFloat(strings.TrimSpace(rec[1]), 64)
		s := strings.TrimSpace(rec[2])
		g.interned = g.interned && slices.Contains(g.strs, s)
		g.ints, g.floats, g.strs = append(g.ints, x), append(g.floats, y), append(g.strs, s)
	}
	return g
}

// check compares v's relation with the columns the constructors build
// over its values. An interned string column must alias every row to
// its dictionary string and count string bytes once per distinct value
// instead of per row.
func (v *fuzzVersion) check(t *testing.T) {
	t.Helper()
	got := v.rel.Columns
	want := []*dataset.Column{
		dataset.NewIntColumn("i", v.ints),
		dataset.NewFloatColumn("f", v.floats),
		dataset.NewStringColumn("s", v.strs),
	}
	if !slices.Equal(got[0].Ints, want[0].Ints) {
		t.Fatalf("ints %v, want %v", got[0].Ints, want[0].Ints)
	}
	for i, w := range want[1].Floats {
		if math.Float64bits(got[1].Floats[i]) != math.Float64bits(w) {
			t.Fatalf("float row %d: %v, want %v", i, got[1].Floats[i], w)
		}
	}
	g, w := got[2], want[2]
	if !slices.Equal(g.Strings, w.Strings) || !slices.Equal(g.Codes, w.Codes) {
		t.Fatalf("strings %q codes %v, want %q %v", g.Strings, g.Codes, w.Strings, w.Codes)
	}
	gv, gi, gerr := g.DictSnapshot()
	wv, _, werr := w.DictSnapshot()
	if gerr != nil || werr != nil || !slices.Equal(gv, wv) || gi != v.interned {
		t.Fatalf("DictSnapshot = (%q, %v, %v), want (%q, %v, %v)", gv, gi, gerr, wv, v.interned, werr)
	}
	if g.DistinctCount() != w.DistinctCount() {
		t.Fatalf("DistinctCount = %d, want %d", g.DistinctCount(), w.DistinctCount())
	}
	wantMem := w.MemBytes()
	if v.interned {
		for i, s := range g.Strings {
			if len(s) > 0 && unsafe.StringData(s) != unsafe.StringData(gv[g.Codes[i]]) {
				t.Fatalf("row %d does not alias its dictionary string", i)
			}
			wantMem -= int64(len(s))
		}
	}
	if g.MemBytes() != wantMem {
		t.Fatalf("MemBytes = %d, want %d", g.MemBytes(), wantMem)
	}
	for j, c := range got {
		if j < 2 && c.MemBytes() != want[j].MemBytes() {
			t.Fatalf("column %d MemBytes = %d, want %d", j, c.MemBytes(), want[j].MemBytes())
		}
		if c.MemBytes() != dataset.MemBytesWalk(c) {
			t.Fatalf("column %d MemBytes = %d, walk %d", j, c.MemBytes(), dataset.MemBytesWalk(c))
		}
	}
}
