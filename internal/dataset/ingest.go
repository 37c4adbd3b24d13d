package dataset

// Streaming, chunk-parallel CSV ingest. ReadCSV used to materialize the
// whole file twice — csv.ReadAll's [][]string and then per-column value
// slices — and run inference, parsing, and dictionary encoding serially.
// The pipeline here never holds a [][]string: a single reader goroutine
// streams records into fixed-size row chunks backed by per-chunk byte
// arenas, a worker pool runs type inference and numeric parsing per
// chunk, and string columns are dictionary-encoded per chunk against
// shard dictionaries that a deterministic merge renumbers into global
// first-occurrence code order. The output is bit-identical to the
// buffered reader for every input (TestIngestMatchesBuffered,
// FuzzReadCSVStream): same types, same values, same dictionary codes,
// same errors.
//
// Determinism does not depend on scheduling: workers only compute
// per-chunk results, and every cross-chunk decision — the column type,
// the global dictionary, cluster numbering downstream in package pli —
// is made by folding chunk results in chunk order.

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"adc/internal/par"
)

// IngestOptions tunes the streaming CSV reader. The zero value uses
// GOMAXPROCS workers and DefaultChunkRows rows per chunk, and it is
// what ReadCSV passes; the parsed relation is identical for every
// setting, so only the chunk-boundary tests and the parallel-ingest
// benchmark set the fields.
type IngestOptions struct {
	// Workers is the chunk-parse parallelism: 0 picks GOMAXPROCS, 1
	// forces the serial path (one worker draining the same pipeline).
	Workers int
	// ChunkRows is the number of CSV records per parse chunk; 0 picks
	// DefaultChunkRows. Smaller chunks shrink peak arena memory and
	// improve load balance on skinny files; larger chunks amortize
	// per-chunk dictionary setup.
	ChunkRows int
}

// DefaultChunkRows is the chunk granularity of the streaming reader:
// large enough to amortize per-chunk state, small enough that a chunk's
// arena and speculative parse buffers stay cache- and memory-friendly.
const DefaultChunkRows = 4096

// arenaSealBytes seals a chunk early when its arena outgrows this, so
// files with huge cells cannot push a single arena past the int32
// offset range no matter what ChunkRows says.
const arenaSealBytes = 8 << 20

// Column type speculation per chunk, ordered so that the merged mode of
// a column is the maximum over its chunks' modes.
const (
	chunkInt int8 = iota
	chunkFloat
	chunkString
)

// chunkData is one batch of rows flowing through the pipeline: the
// reader fills arena/offs, a worker fills trimmed bounds and the
// per-column speculative parses, and the finalize stage fills codes and
// shard dictionaries for columns that end up String.
type chunkData struct {
	rowOff int // global index of this chunk's first row
	rows   int
	arena  []byte
	offs   []int32 // len rows*width+1; cell k is arena[offs[k]:offs[k+1]]
	ts, te []int32 // trimmed cell bounds, row-major, filled by parseChunk
	cols   []colChunk
}

// colChunk is the per-chunk state of one column.
type colChunk struct {
	mode   int8
	ints   []int64   // complete iff mode == chunkInt
	floats []float64 // complete iff mode == chunkFloat
	codes  []int32   // shard dictionary codes, String finalize only
	dict   []string  // shard dictionary in first-occurrence order
}

// ReadCSVOptions parses a relation from CSV data with the streaming
// chunk-parallel reader. Semantics match ReadCSV exactly: header
// handling, c0...-style naming, whitespace trimming, type inference
// (all-int → Int, all-float → Float, otherwise String; an empty cell
// forces String), and dictionary codes in first-occurrence order. Row
// width is validated in one place, as each record is chunked: a
// mid-file width change fails with the offending row number and no
// partially built relation.
//
// One size limit applies that the buffered oracle did not have: a
// single row's cells must fit an int32-offset arena (< 2 GiB per
// row; chunks holding multiple rows seal early long before this).
// Rows beyond it fail with an explicit error rather than parsing.
func ReadCSVOptions(rd io.Reader, name string, header bool, opt IngestOptions) (*Relation, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunkRows := opt.ChunkRows
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}

	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1 // width is validated here, with row numbers
	cr.ReuseRecord = true   // records are copied straight into arenas

	first, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("dataset: CSV for %q is empty", name)
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV for %q: %w", name, err)
	}
	var names []string
	if header {
		names = append([]string(nil), first...)
		first = nil
	} else {
		names = make([]string, len(first))
		for i := range names {
			names[i] = "c" + strconv.Itoa(i)
		}
	}
	width := len(names)

	// Parse workers drain chunks as the reader seals them.
	jobs := make(chan *chunkData, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ch := range jobs {
				parseChunk(ch, width)
			}
		}()
	}

	var chunks []*chunkData
	newChunk := func(rowOff int) *chunkData {
		return &chunkData{
			rowOff: rowOff,
			offs:   append(make([]int32, 0, chunkRows*width+1), 0),
		}
	}
	cur := newChunk(0)
	rows := 0
	seal := func() {
		chunks = append(chunks, cur)
		jobs <- cur
		cur = newChunk(rows)
	}

	var readErr error
	add := func(rec []string) bool {
		if len(rec) != width {
			readErr = fmt.Errorf("dataset: CSV for %q: row %d has %d fields, want %d",
				name, rows+1, len(rec), width)
			return false
		}
		for _, cell := range rec {
			if len(cur.arena)+len(cell) > math.MaxInt32 {
				readErr = fmt.Errorf("dataset: CSV for %q: row %d overflows the chunk arena", name, rows+1)
				return false
			}
			cur.arena = append(cur.arena, cell...)
			cur.offs = append(cur.offs, int32(len(cur.arena)))
		}
		cur.rows++
		rows++
		if cur.rows >= chunkRows || len(cur.arena) >= arenaSealBytes {
			seal()
		}
		return true
	}

	if first != nil { // no header: the probe record is the first data row
		add(first)
	}
	for readErr == nil {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = fmt.Errorf("dataset: reading CSV for %q: %w", name, err)
			break
		}
		if !add(rec) {
			break
		}
	}
	if readErr == nil && cur.rows > 0 {
		seal()
	}
	close(jobs)
	wg.Wait()
	if readErr != nil {
		return nil, readErr
	}
	if rows == 0 {
		return nil, fmt.Errorf("dataset: CSV for %q has a header but no rows", name)
	}

	return assembleColumns(name, names, chunks, rows, workers)
}

// assembleColumns folds parsed chunks into final columns: decide each
// column's type from the chunk modes, materialize values in parallel at
// (chunk × column) granularity, then merge string shard dictionaries
// per column in chunk order so codes land in global first-occurrence
// order.
func assembleColumns(name string, names []string, chunks []*chunkData, rows, workers int) (*Relation, error) {
	width := len(names)
	modes := make([]int8, width)
	for _, ch := range chunks {
		for j, cc := range ch.cols {
			if cc.mode > modes[j] {
				modes[j] = cc.mode
			}
		}
	}

	ints := make([][]int64, width)
	floats := make([][]float64, width)
	for j, m := range modes {
		switch m {
		case chunkInt:
			ints[j] = make([]int64, rows)
		case chunkFloat:
			floats[j] = make([]float64, rows)
		}
	}

	// Materialize per (chunk, column): disjoint writes, freely parallel.
	tasks := make([]func(), 0, len(chunks)*width)
	for _, ch := range chunks {
		ch := ch
		for j := 0; j < width; j++ {
			j := j
			tasks = append(tasks, func() {
				finalizeChunkCol(ch, j, width, modes[j], ints[j], floats[j])
			})
		}
	}
	runTasks(workers, tasks)

	// Column construction: numeric columns are ready; string columns
	// merge their shard dictionaries sequentially in chunk order (the
	// determinism point), with distinct columns still in parallel.
	cols := make([]*Column, width)
	tasks = tasks[:0]
	for j := 0; j < width; j++ {
		j := j
		switch modes[j] {
		case chunkInt:
			cols[j] = NewIntColumn(names[j], ints[j])
		case chunkFloat:
			cols[j] = NewFloatColumn(names[j], floats[j])
		default:
			tasks = append(tasks, func() {
				cols[j] = mergeStringCol(names[j], chunks, j, rows)
			})
		}
	}
	runTasks(workers, tasks)
	return NewRelation(name, cols)
}

// parseChunk runs type speculation and numeric parsing over one chunk:
// trim every cell (bounds are kept for the finalize stage), and per
// column parse ints while all cells parse as ints, degrade to floats
// (backfilling earlier rows by re-parsing, so Float values are exactly
// strconv.ParseFloat of the cell, never a lossy int conversion), and
// give up into string mode on the first cell that is neither — or on
// any empty cell, which forces String as in the buffered reader.
func parseChunk(ch *chunkData, width int) {
	cells := ch.rows * width
	ch.ts = make([]int32, cells)
	ch.te = make([]int32, cells)
	ch.cols = make([]colChunk, width)
	for j := range ch.cols {
		ch.cols[j].ints = make([]int64, 0, ch.rows)
	}
	for r := 0; r < ch.rows; r++ {
		base := r * width
		for j := 0; j < width; j++ {
			k := base + j
			s, e := trimSpaceRange(ch.arena, ch.offs[k], ch.offs[k+1])
			ch.ts[k], ch.te[k] = s, e
			col := &ch.cols[j]
			if col.mode == chunkString {
				continue
			}
			b := ch.arena[s:e]
			if len(b) == 0 {
				col.mode = chunkString
				col.ints, col.floats = nil, nil
				continue
			}
			if col.mode == chunkInt {
				if v, ok := parseIntBytes(b); ok {
					col.ints = append(col.ints, v)
					continue
				}
				// No longer all-int: re-parse the rows seen so far as
				// floats from the arena and continue in float mode.
				col.floats = make([]float64, 0, ch.rows)
				ok := true
				for rr := 0; rr < r && ok; rr++ {
					kk := rr*width + j
					var v float64
					v, ok = parseFloatBytes(ch.arena[ch.ts[kk]:ch.te[kk]])
					col.floats = append(col.floats, v)
				}
				col.ints = nil
				if !ok { // cannot happen for int-parsed cells; be safe
					col.mode = chunkString
					col.floats = nil
					continue
				}
				col.mode = chunkFloat
			}
			if v, ok := parseFloatBytes(b); ok {
				col.floats = append(col.floats, v)
			} else {
				col.mode = chunkString
				col.ints, col.floats = nil, nil
			}
		}
	}
}

// finalizeChunkCol materializes one chunk's slice of one final column.
func finalizeChunkCol(ch *chunkData, j, width int, mode int8, ints []int64, floats []float64) {
	cc := &ch.cols[j]
	switch mode {
	case chunkInt:
		copy(ints[ch.rowOff:], cc.ints)
	case chunkFloat:
		if cc.mode == chunkFloat {
			copy(floats[ch.rowOff:], cc.floats)
			return
		}
		// This chunk stayed all-int but another chunk forced Float:
		// re-parse so values are bitwise ParseFloat results ("-0" must
		// become -0.0, not float64(0)).
		for r := 0; r < ch.rows; r++ {
			k := r*width + j
			v, _ := parseFloatBytes(ch.arena[ch.ts[k]:ch.te[k]])
			floats[ch.rowOff+r] = v
		}
	default:
		// Shard-dictionary encode: codes are chunk-local, in chunk
		// first-occurrence order, renumbered globally by mergeStringCol.
		codes := make([]int32, ch.rows)
		var dict []string
		lookup := make(map[string]int32)
		for r := 0; r < ch.rows; r++ {
			k := r*width + j
			b := ch.arena[ch.ts[k]:ch.te[k]]
			id, ok := lookup[string(b)] // compiler-optimized: no alloc on hit
			if !ok {
				s := string(b)
				id = int32(len(dict))
				lookup[s] = id
				dict = append(dict, s)
			}
			codes[r] = id
		}
		cc.codes, cc.dict = codes, dict
	}
}

// mergeStringCol renumbers the shard dictionaries of one column into a
// single dictionary in global first-occurrence order. Within a chunk,
// shard codes are assigned in first-occurrence order, so walking each
// chunk's distinct values in shard-code order — chunks in chunk order —
// visits values exactly in global first-occurrence order; per-row work
// is then a plain array remap. The result is bit-identical to
// NewStringColumn over the full value sequence, with one allocation per
// distinct value instead of per row (rows share the interned string).
func mergeStringCol(name string, chunks []*chunkData, j, rows int) *Column {
	dict := make(map[string]int32)
	var values []string
	codes := make([]int32, rows)
	for _, ch := range chunks {
		cc := &ch.cols[j]
		remap := make([]int32, len(cc.dict))
		for s, v := range cc.dict {
			g, ok := dict[v]
			if !ok {
				g = int32(len(values))
				dict[v] = g
				values = append(values, v)
			}
			remap[s] = g
		}
		out := codes[ch.rowOff : ch.rowOff+ch.rows]
		for i, sc := range cc.codes {
			out[i] = remap[sc]
		}
	}
	strs := make([]string, rows)
	for i, cd := range codes {
		strs[i] = values[cd]
	}
	return &Column{Name: name, Type: String, Strings: strs, Codes: codes, dict: dict, values: values, interned: true}
}

// runTasks executes the tasks on up to workers goroutines and waits.
func runTasks(workers int, tasks []func()) {
	par.Do(workers, len(tasks), func(i int) { tasks[i]() })
}

// ---- Cell-level parsing helpers ------------------------------------------

// bstr views a byte slice as a string without copying, for handing
// arena cells to strconv. The arena is append-only and never mutated
// after the chunk is sealed, and strconv does not retain its argument,
// so the view cannot outlive valid bytes.
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// parseFloatBytes is strconv.ParseFloat(string(b), 64) without the
// string copy.
func parseFloatBytes(b []byte) (float64, bool) {
	v, err := strconv.ParseFloat(bstr(b), 64)
	return v, err == nil
}

// parseIntBytes matches strconv.ParseInt(string(b), 10, 64) exactly on
// both acceptance and value: optional sign, decimal digits only (no
// underscores in base 10), overflow rejects. Rejection sends the column
// down the float/string path, as in the buffered reader.
func parseIntBytes(b []byte) (int64, bool) {
	neg := false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		b = b[1:]
		if len(b) == 0 {
			return 0, false
		}
	}
	const cutoff = math.MaxUint64/10 + 1
	var un uint64
	for _, c := range b {
		d := c - '0'
		if d > 9 {
			return 0, false
		}
		if un >= cutoff {
			return 0, false
		}
		un = un*10 + uint64(d)
		if un < uint64(d) {
			return 0, false
		}
	}
	if neg {
		if un > 1<<63 {
			return 0, false
		}
		return -int64(un), true
	}
	if un > math.MaxInt64 {
		return 0, false
	}
	return int64(un), true
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// trimSpaceRange returns the bounds of a[s:e] with leading and trailing
// Unicode whitespace removed — bytes.TrimSpace as offsets, so trimmed
// cells stay addressable inside the arena instead of becoming
// subslices.
func trimSpaceRange(a []byte, s, e int32) (int32, int32) {
	for s < e {
		c := a[s]
		if c < utf8.RuneSelf {
			if !asciiSpace(c) {
				break
			}
			s++
			continue
		}
		r, size := utf8.DecodeRune(a[s:e])
		if !unicode.IsSpace(r) {
			break
		}
		s += int32(size)
	}
	for e > s {
		c := a[e-1]
		if c < utf8.RuneSelf {
			if !asciiSpace(c) {
				break
			}
			e--
			continue
		}
		r, size := utf8.DecodeLastRune(a[s:e])
		if !unicode.IsSpace(r) {
			break
		}
		e -= int32(size)
	}
	return s, e
}
