package dataset_test

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"adc/internal/dataset"
)

// ingestVariants is the worker × chunk-size grid the differential tests
// sweep: the serial path, chunks of a few bytes that cut at nearly every
// record (and inside quoted cells, which the cut must step over), sizes
// that cut mid-record, and more workers than chunks.
var ingestVariants = []dataset.IngestOptions{
	{Workers: 1, ChunkBytes: 1},
	{Workers: 1, ChunkBytes: 7},
	{Workers: 2, ChunkBytes: 3},
	{Workers: 2, ChunkBytes: 64},
	{Workers: 8, ChunkBytes: 5},
	{Workers: 8, ChunkBytes: 1024},
	{}, // defaults: GOMAXPROCS workers
}

// relContentEqual compares two relations on everything the engine
// reads: shape, names, types, raw values, and dictionary codes. It is
// the cross-implementation comparison (the buffered oracle does not set
// the interned flag, so reflect.DeepEqual does not apply).
func relContentEqual(t *testing.T, label string, got, want *dataset.Relation) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumColumns() != want.NumColumns() {
		t.Fatalf("%s: shape (%d,%d), want (%d,%d)", label,
			got.NumRows(), got.NumColumns(), want.NumRows(), want.NumColumns())
	}
	for j, w := range want.Columns {
		g := got.Columns[j]
		if g.Name != w.Name || g.Type != w.Type {
			t.Fatalf("%s: column %d is (%q,%v), want (%q,%v)", label, j, g.Name, g.Type, w.Name, w.Type)
		}
		if !reflect.DeepEqual(g.Ints, w.Ints) {
			t.Fatalf("%s: column %q Ints differ", label, w.Name)
		}
		if len(g.Floats) != len(w.Floats) {
			t.Fatalf("%s: column %q Floats length differs", label, w.Name)
		}
		for i := range g.Floats {
			// Bitwise comparison: -0.0 vs +0.0 and NaN payloads must
			// match the oracle's strconv.ParseFloat output exactly.
			if fmt.Sprintf("%x", g.Floats[i]) != fmt.Sprintf("%x", w.Floats[i]) {
				t.Fatalf("%s: column %q row %d: float %v (%x), want %v (%x)",
					label, w.Name, i, g.Floats[i], g.Floats[i], w.Floats[i], w.Floats[i])
			}
		}
		if !reflect.DeepEqual(g.Strings, w.Strings) {
			t.Fatalf("%s: column %q Strings differ", label, w.Name)
		}
		if !reflect.DeepEqual(g.Codes, w.Codes) {
			t.Fatalf("%s: column %q Codes differ", label, w.Name)
		}
	}
}

func hasNaN(r *dataset.Relation) bool {
	for _, c := range r.Columns {
		for _, v := range c.Floats {
			if v != v {
				return true
			}
		}
	}
	return false
}

// csvCases are handcrafted inputs covering the inference edges: type
// flips across chunk boundaries, empty cells, whitespace trimming,
// CRLF, quoted separators, overflow, and float spellings.
func csvCases() map[string]string {
	var flip strings.Builder
	flip.WriteString("a,b,c\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&flip, "%d,%d.5,v%d\n", i, i, i%7)
	}
	flip.WriteString("3.25,xyz,v1\n") // late flips: a Int→Float, b Float→String
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&flip, "%d,%d,v%d\n", i, i, i%3)
	}

	return map[string]string{
		"types":      "name,age,score,zip\nalice,30,1.5,02139\nbob,25,2.5,10001\n",
		"flip":       flip.String(),
		"empty_cell": "a,b\n1,x\n,y\n3,z\n",
		"whitespace": "a,b\n 1 ,\tx\n 2 , y \n",
		"crlf":       "a,b\r\n1,x\r\n2,y\r\n",
		"quoted":     "a,b\n\"1,5\",\"line\nbreak\"\n\"2,5\",plain\n",
		"signs":      "a,b,c\n+1,-0,1e3\n-2,+0,0x1p-2\n",
		"overflow":   "a\n9223372036854775807\n9223372036854775808\n",
		"negzero":    "a\n-0\n-0\n1.5\n", // int-looking chunks must re-parse as ParseFloat (-0.0, not +0.0)
		"nan_inf":    "a\nnan\n+Inf\n-inf\n",
		"dup_vals":   "s\nx\ny\nx\nx\ny\nz\nx\n",
		"no_header":  "1,x\n2,y\n3,x\n",
	}
}

// TestIngestMatchesBuffered is the primary differential: every worker /
// chunk-size variant must produce exactly the buffered oracle's output
// on every case, and all variants must be reflect.DeepEqual to each
// other (the streaming paths share the interned representation).
func TestIngestMatchesBuffered(t *testing.T) {
	for name, in := range csvCases() {
		t.Run(name, func(t *testing.T) {
			header := name != "no_header"
			want, err := dataset.ReadCSVBuffered(strings.NewReader(in), "d", header)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			var first *dataset.Relation
			for _, opt := range ingestVariants {
				label := fmt.Sprintf("workers=%d,chunk=%d", opt.Workers, opt.ChunkBytes)
				got, err := dataset.ReadCSVOptions(strings.NewReader(in), "d", header, opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				relContentEqual(t, label, got, want)
				// DeepEqual additionally pins the internal representation
				// (dictionaries, interning) across variants; it cannot
				// apply to NaN-bearing relations (NaN != NaN), which the
				// bitwise content check above already covers.
				if hasNaN(got) {
					continue
				}
				if first == nil {
					first = got
				} else if !reflect.DeepEqual(got, first) {
					t.Fatalf("%s: streaming output not bit-identical across variants", label)
				}
			}
		})
	}
}

// TestIngestRandomized fuzzes shapes cheaply at test time: random
// column kinds, random type-flip rows, random empties, quoted cells
// (holding a comma, a doubled quote, "\n" or "\r\n"), untrimmed and
// quoted header names, blank lines, CRLF line ends and a missing final
// newline, read at random chunk sizes.
func TestIngestRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kinds := []string{"int", "float", "str", "mixed", "quoted"}
	quotedVals := []string{"s,1", `a""b`, "line\nbreak", "crlf\r\nbreak", `"`, "", " pad "}
	quote := func(v string) string { return `"` + strings.ReplaceAll(v, `"`, `""`) + `"` }
	for trial := 0; trial < 40; trial++ {
		cols := 1 + rng.Intn(5)
		rows := 1 + rng.Intn(200)
		eol := "\n"
		if rng.Intn(3) == 0 {
			eol = "\r\n"
		}
		var sb strings.Builder
		kind := make([]string, cols)
		for j := 0; j < cols; j++ {
			kind[j] = kinds[rng.Intn(len(kinds))]
			if j > 0 {
				sb.WriteByte(',')
			}
			switch rng.Intn(8) {
			case 0:
				fmt.Fprintf(&sb, " col%d ", j) // header cells stay untrimmed
			case 1:
				sb.WriteString(quote(fmt.Sprintf("col,%d\n", j)))
			default:
				fmt.Fprintf(&sb, "col%d", j)
			}
		}
		sb.WriteString(eol)
		for i := 0; i < rows; i++ {
			for rng.Intn(20) == 0 {
				sb.WriteString(eol) // blank lines are no rows
			}
			for j := 0; j < cols; j++ {
				if j > 0 {
					sb.WriteByte(',')
				}
				var cell string
				switch k := kind[j]; {
				case rng.Intn(50) == 0:
					// occasional empty or spacey cell
					cell = []string{"", "  ", "\t"}[rng.Intn(3)]
				case k == "int":
					cell = fmt.Sprintf("%d", rng.Intn(1000)-500)
				case k == "float":
					cell = fmt.Sprintf("%g", (rng.Float64()-0.5)*1e6)
				case k == "str":
					cell = fmt.Sprintf("s%d", rng.Intn(20))
				case k == "quoted":
					cell = quote(quotedVals[rng.Intn(len(quotedVals))])
				default: // mixed: int-looking with occasional flips
					if rng.Intn(10) == 0 {
						cell = fmt.Sprintf("x%d", rng.Intn(5))
					} else {
						cell = fmt.Sprintf("%d", rng.Intn(100))
					}
				}
				if k := kind[j]; k != "quoted" && rng.Intn(10) == 0 {
					cell = quote(cell) // quoting does not change a cell's value
				}
				sb.WriteString(cell)
			}
			sb.WriteString(eol)
		}
		in := sb.String()
		if trial%4 == 3 {
			in = strings.TrimSuffix(in, eol) // no final newline
		}
		want, err := dataset.ReadCSVBuffered(strings.NewReader(in), "r", true)
		if err != nil {
			t.Fatalf("trial %d oracle: %v", trial, err)
		}
		opt := dataset.IngestOptions{Workers: 1 + rng.Intn(8), ChunkBytes: 1 + rng.Intn(64)}
		got, err := dataset.ReadCSVOptions(strings.NewReader(in), "r", true, opt)
		if err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, opt, err)
		}
		relContentEqual(t, fmt.Sprintf("trial %d (%+v)", trial, opt), got, want)
	}
}

// TestIngestWidthErrors pins the single-validation-point behavior: a
// mid-file width change fails with the offending 1-based data row
// number, identically to the buffered oracle, for every chunking.
func TestIngestWidthErrors(t *testing.T) {
	cases := map[string]struct {
		in     string
		header bool
	}{
		"short row":       {"a,b\n1,2\n3\n4,5\n", true},
		"long row":        {"a,b\n1,2\n3,4,5\n", true},
		"first data row":  {"a,b\n1\n", true},
		"no header short": {"1,2\n3\n", false},
		"late change":     {"a\n1\n2\n3\n4\n5\n6\n7\n8\n9\n10,11\n", true},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, wantErr := dataset.ReadCSVBuffered(strings.NewReader(tc.in), "d", tc.header)
			if wantErr == nil {
				t.Fatal("oracle accepted malformed input")
			}
			for _, opt := range ingestVariants {
				_, err := dataset.ReadCSVOptions(strings.NewReader(tc.in), "d", tc.header, opt)
				if err == nil {
					t.Fatalf("%+v: want error %q, got nil", opt, wantErr)
				}
				if err.Error() != wantErr.Error() {
					t.Fatalf("%+v: error %q, want %q", opt, err, wantErr)
				}
			}
		})
	}
}

// TestIngestFirstErrorInInputOrder pins which error wins when an input
// has several: the first in input order, at every chunking. An earlier
// chunk's width or syntax error beats a later chunk's error and a read
// error after it, and a syntax error in a record that a read error cuts
// short beats the read error, as with encoding/csv's Reader.
func TestIngestFirstErrorInInputOrder(t *testing.T) {
	errBoom := errors.New("boom")
	var rows strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&rows, "%d,\"v\n%d\"\n", i, i)
	}
	body := rows.String()
	widthErr := `dataset: CSV for "d": row 2 has 1 fields, want 2`
	cases := map[string]struct {
		in      string
		readErr bool   // the reader fails after in
		want    string // "" wants the oracle's error
	}{
		"width before syntax":    {"a,b\n1,x\n3\n" + body + "4,\"x", false, widthErr},
		"width before read":      {"a,b\n1,x\n3\n" + body, true, widthErr},
		"syntax before width":    {"a,b\n1,x\"y\n" + body + "5\n", false, ""},
		"quote before width":     {"a,b\n\"1\"x,2\n" + body + "5\n", false, ""},
		"eof inside quotes":      {"a,b\n" + body + "1,\"x\n\n", false, ""},
		"read after rows":        {"a,b\n" + body, true, `dataset: reading CSV for "d": boom`},
		"read cuts a record":     {"a,b\n" + body + "3,\"x", true, `dataset: reading CSV for "d": boom`},
		"syntax in a cut record": {"a,b\n" + body + "\"x\"y", true, ""},
		"read in the header":     {"a,\"b", true, `dataset: reading CSV for "d": boom`},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			read := func() io.Reader {
				if tc.readErr {
					return io.MultiReader(strings.NewReader(tc.in), iotest.ErrReader(errBoom))
				}
				return strings.NewReader(tc.in)
			}
			want := tc.want
			if want == "" {
				_, err := dataset.ReadCSVBuffered(read(), "d", true)
				var pe *csv.ParseError
				if !errors.As(err, &pe) {
					t.Fatalf("oracle error %v is no syntax error", err)
				}
				want = err.Error()
			}
			for _, opt := range append(ingestVariants, dataset.IngestOptions{Workers: 2, ChunkBytes: 40}) {
				_, err := dataset.ReadCSVOptions(read(), "d", true, opt)
				if err == nil || err.Error() != want {
					t.Fatalf("%+v: error %v, want %s", opt, err, want)
				}
				if tc.readErr && strings.HasSuffix(want, "boom") && !errors.Is(err, errBoom) {
					t.Fatalf("%+v: %v does not wrap the read error", opt, err)
				}
			}
		})
	}
}

// stallReader returns its data, then reads that return nothing, with
// no error, forever.
type stallReader struct{ data string }

func (s *stallReader) Read(p []byte) (int, error) {
	n := copy(p, s.data)
	s.data = s.data[n:]
	return n, nil
}

// TestIngestStalledReader checks that a reader that stops making
// progress fails as it does through the oracle's bufio.Reader, with
// io.ErrNoProgress, instead of being read forever.
func TestIngestStalledReader(t *testing.T) {
	in := "a,b\n1,2\n3,4\n"
	_, wantErr := dataset.ReadCSVBuffered(&stallReader{in}, "d", true)
	_, err := dataset.ReadCSVOptions(&stallReader{in}, "d", true, dataset.IngestOptions{Workers: 2, ChunkBytes: 4})
	if !errors.Is(err, io.ErrNoProgress) || wantErr == nil || err.Error() != wantErr.Error() {
		t.Fatalf("error %v, want %v", err, wantErr)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestIngestStopsReadingAtError checks that reading stays incremental:
// once a chunk fails, the reader stops a few chunks past the error
// rather than at the end of the input. A bare quote flips the quote
// count for the rest of the input, so there the reader's own syntax
// check must stop it; a width error leaves the cuts intact, so there
// the failing worker must, which one worker makes deterministic.
func TestIngestStopsReadingAtError(t *testing.T) {
	for _, tc := range []struct {
		name, head string
		workers    []int
	}{
		{"bare quote", "a,b\n1,x\"y\n", []int{1, 2, 8}},
		{"width", "a,b\n1\n", []int{1}},
	} {
		var sb strings.Builder
		sb.WriteString(tc.head)
		for sb.Len() < 1<<20 {
			sb.WriteString("1,2\n")
		}
		_, want := dataset.ReadCSVBuffered(strings.NewReader(tc.head+"3,4\n"), "d", true)
		for _, workers := range tc.workers {
			cr := &countingReader{r: strings.NewReader(sb.String())}
			_, err := dataset.ReadCSVOptions(cr, "d", true, dataset.IngestOptions{Workers: workers, ChunkBytes: 4096})
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("%s, workers=%d: error %v, want %v", tc.name, workers, err, want)
			}
			if cr.n > 1<<18 {
				t.Fatalf("%s, workers=%d: read %d of %d bytes after an error in the first chunk",
					tc.name, workers, cr.n, sb.Len())
			}
		}
	}
}

// TestIngestEmptyAndHeaderOnly pins the empty-input errors.
func TestIngestEmptyAndHeaderOnly(t *testing.T) {
	for name, in := range map[string]string{"empty": "", "header only": "a,b\n"} {
		_, wantErr := dataset.ReadCSVBuffered(strings.NewReader(in), "d", true)
		_, err := dataset.ReadCSVOptions(strings.NewReader(in), "d", true, dataset.IngestOptions{})
		if wantErr == nil || err == nil {
			t.Fatalf("%s: want errors from both paths", name)
		}
		if err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %q, want %q", name, err, wantErr)
		}
	}
}

// TestIngestInternedMemBytes checks the honest accounting: a column of
// heavily repeated strings must charge the distinct bytes once, so the
// interned estimate stays well under the per-row estimate the buffered
// path reports for identical content.
func TestIngestInternedMemBytes(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("s\n")
	long := strings.Repeat("value", 20) // 100 bytes per occurrence
	for i := 0; i < 1000; i++ {
		sb.WriteString(long)
		sb.WriteByte('\n')
	}
	in := sb.String()
	streamed, err := dataset.ReadCSVOptions(strings.NewReader(in), "d", true, dataset.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	buffered, err := dataset.ReadCSVBuffered(strings.NewReader(in), "d", true)
	if err != nil {
		t.Fatal(err)
	}
	sm, bm := streamed.MemBytes(), buffered.MemBytes()
	if sm >= bm/2 {
		t.Fatalf("interned MemBytes %d not clearly below per-row estimate %d", sm, bm)
	}
	if sm < 1000*16 {
		t.Fatalf("interned MemBytes %d below the row-header floor", sm)
	}
}

// TestWriteReadRoundTripLarge pushes a multi-chunk relation through
// WriteCSV → streaming read and back, comparing rendered rows.
func TestWriteReadRoundTripLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 10000
	ints := make([]int64, n)
	floats := make([]float64, n)
	strs := make([]string, n)
	for i := 0; i < n; i++ {
		ints[i] = int64(rng.Intn(50))
		floats[i] = float64(rng.Intn(1000))/8 + 0.125 // exact in binary; survives text
		strs[i] = fmt.Sprintf("cat-%d", rng.Intn(12))
	}
	rel := dataset.MustNewRelation("big", []*dataset.Column{
		dataset.NewIntColumn("i", ints),
		dataset.NewFloatColumn("f", floats),
		dataset.NewStringColumn("s", strs),
	})
	var buf bytes.Buffer
	if err := rel.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := dataset.ReadCSVOptions(bytes.NewReader(buf.Bytes()), "big", true,
		dataset.IngestOptions{Workers: 4, ChunkBytes: 333})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != n {
		t.Fatalf("rows = %d, want %d", back.NumRows(), n)
	}
	for _, i := range []int{0, 1, 999, 4096, 4097, n - 1} {
		if back.Row(i) != rel.Row(i) {
			t.Fatalf("row %d: %s, want %s", i, back.Row(i), rel.Row(i))
		}
	}
}
