package dataset

// Streaming, chunk-parallel CSV ingest, the parallel loading of
// "Instant Loading for Main Memory Databases" (Mühlbauer et al., PVLDB
// 2013). One reader goroutine only reads the input in large blocks and
// cuts them into chunks at record boundaries; it neither splits fields
// nor copies cells. A newline ends a record exactly when an even number
// of quotes precede it in the chunk (strict quoting allows a quote only
// to open a field, to close it, or doubled inside it), so finding the
// cut takes bytes.IndexByte over quotes and newlines. A pool of workers
// parses the chunks: each splits its chunk's fields with the grammar
// encoding/csv applies as the oracle configures it, unescapes quoted
// cells in place in the chunk's bytes, and in the same pass trims every
// cell, speculates its column's type (Int → Float → String) and
// dictionary-encodes string cells against the chunk's shard dictionary.
// A merge renumbers the shard dictionaries into global first-occurrence
// code order. The output is bit-identical to the buffered reader's for
// every input (TestIngestMatchesBuffered, FuzzReadCSVStream): same
// types, same values, same dictionary codes, same errors.
//
// On malformed input the quote count and the grammar can disagree, but
// the first place they do is itself a syntax error, inside a chunk that
// starts at a true record boundary, and every chunk before it parses as
// the oracle does. So the first error in input order, the one reported,
// is the oracle's; the chunks after it may be cut anywhere and their
// results are discarded.
//
// Determinism does not depend on scheduling: workers only compute
// per-chunk results, and every cross-chunk decision — the column type,
// row and line numbers, the first error, the global dictionary, cluster
// numbering downstream in package pli — is made by folding chunk
// results in chunk order.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"adc/internal/par"
)

// IngestOptions tunes the streaming CSV reader. The zero value uses
// GOMAXPROCS workers and chunks of chunkBytes, and it is what ReadCSV
// passes; the parsed relation is identical for every setting, so only
// the chunk-boundary tests and the parallel-ingest benchmarks set the
// fields.
type IngestOptions struct {
	// Workers is the chunk-parse parallelism: 0 picks GOMAXPROCS, 1
	// parses every chunk on one worker.
	Workers int
	// ChunkBytes is how many bytes the reader holds before it cuts a
	// chunk at the last record boundary; 0 picks chunkBytes. A few
	// bytes cut at nearly every record.
	ChunkBytes int
}

// chunkBytes is the reader's block size: large enough to amortize a
// chunk's shard dictionaries, small enough that a 20k-row table makes
// several chunks for the workers to share.
const chunkBytes = 256 << 10

// The reader stops early when a record outgrows a chunk, or when it has
// found a syntax error without a record boundary before it.
var (
	errRowTooLong = errors.New("record longer than 2 GiB")
	errSyntax     = errors.New("syntax error")
)

// Column type speculation per chunk, ordered so that the merged mode of
// a column is the maximum over its chunks' modes.
const (
	chunkInt int8 = iota
	chunkFloat
	chunkString
)

// chunk is one piece of the input, cut at record boundaries by the
// reader and parsed by one worker.
type chunk struct {
	buf       []byte // the input's bytes; quoted cells are unescaped in place
	truncated bool   // the input stops after buf short of its end (a read error)
	rowOff    int    // global index of the first row, set once all chunks parsed

	// Filled by parse.
	rows  int
	lines int // newlines in buf
	est   int // rows at most: the newlines in buf, plus one
	cols  []colChunk
	err   *chunkErr // the chunk's first error
}

// colChunk is the per-chunk state of one column.
type colChunk struct {
	mode   int8
	ints   []int64          // complete iff mode == chunkInt
	floats []float64        // complete iff mode == chunkFloat
	bounds []int32          // trimmed cells, buf[bounds[2r]:bounds[2r+1]], while numeric
	codes  []int32          // shard dictionary codes, complete iff mode == chunkString
	dict   []string         // shard dictionary in first-occurrence order
	lookup map[string]int32 // dict's inverse while codes are assigned
}

// chunkErr is a chunk's first error, positioned within the chunk: the
// fold in ReadCSVOptions adds the rows and lines of the chunks before.
type chunkErr struct {
	fields    int // a width error: the record's field count; 0 for a syntax error
	startLine int // a syntax error: the record's first line, 0-based in the chunk
	line, col int // where it is: 0-based line, 1-based byte column
	bareQuote bool
}

// ReadCSVOptions parses a relation from CSV data with the streaming
// chunk-parallel reader. Semantics match ReadCSV exactly: header
// handling, c0...-style naming, untrimmed header cells, whitespace
// trimming of data cells, type inference (all-int → Int, all-float →
// Float, otherwise String; an empty cell forces String), and dictionary
// codes in first-occurrence order. The first error in input order is
// returned, with no partially built relation: a syntax error as the
// *csv.ParseError encoding/csv reports, a mid-file width change with
// the offending row number, or the reader's error.
//
// One size limit applies that the buffered oracle did not have: a
// record must fit a chunk of 2 GiB, so that int32 offsets address its
// cells. Longer records fail with an explicit error rather than
// parsing.
func ReadCSVOptions(rd io.Reader, name string, header bool, opt IngestOptions) (*Relation, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := &cutter{rd: rd, size: opt.ChunkBytes}
	if c.size <= 0 {
		c.size = chunkBytes
	}

	// The first record names the columns, or without a header fixes the
	// width; the reader parses it before any worker starts.
	var names []string
	var first *chunk
	lines := 0 // newlines before first
	for first == nil {
		ch := c.next()
		if ch == nil {
			if c.err != io.EOF {
				return nil, fmt.Errorf("dataset: reading CSV for %q: %w", name, c.err)
			}
			return nil, fmt.Errorf("dataset: CSV for %q is empty", name)
		}
		p := parser{b: ch.buf, write: header, truncated: ch.truncated}
		rec, st := p.record(nil)
		switch {
		case st == recErr:
			return nil, p.err.syntax(name, lines)
		case st == recNone:
			lines += p.line
			continue
		case st == recEnd && ch.truncated:
			return nil, fmt.Errorf("dataset: reading CSV for %q: %w", name, c.err)
		}
		names = make([]string, len(rec)/2)
		for j := range names {
			if header {
				names[j] = string(ch.buf[rec[2*j]:rec[2*j+1]])
			} else {
				names[j] = "c" + strconv.Itoa(j)
			}
		}
		if header {
			ch.buf = ch.buf[p.i:]
			lines += p.line
		}
		first = ch
	}
	width := len(names)

	// Parse workers drain chunks as the reader cuts them; once one finds
	// an error, the first error in input order is among the chunks
	// already cut, so the reader stops. A queue of one chunk a worker
	// keeps every worker busy and bounds how far the reader runs ahead.
	jobs := make(chan *chunk, workers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ch := range jobs {
				if !ch.parse(width) {
					failed.Store(true)
				}
			}
		}()
	}
	chunks := []*chunk{first}
	jobs <- first
	for c.err == nil && !failed.Load() {
		ch := c.next()
		if ch == nil {
			break
		}
		chunks = append(chunks, ch)
		jobs <- ch
	}
	close(jobs)
	wg.Wait()

	rows := 0
	for _, ch := range chunks {
		ch.rowOff = rows
		if e := ch.err; e != nil {
			if e.fields > 0 {
				return nil, fmt.Errorf("dataset: CSV for %q: row %d has %d fields, want %d",
					name, rows+ch.rows+1, e.fields, width)
			}
			return nil, e.syntax(name, lines)
		}
		rows += ch.rows
		lines += ch.lines
	}
	switch c.err {
	case io.EOF:
	case errRowTooLong:
		return nil, fmt.Errorf("dataset: CSV for %q: row %d is longer than 2 GiB", name, rows+1)
	default:
		return nil, fmt.Errorf("dataset: reading CSV for %q: %w", name, c.err)
	}
	if rows == 0 {
		return nil, fmt.Errorf("dataset: CSV for %q has a header but no rows", name)
	}
	return assembleColumns(name, names, chunks, rows, workers)
}

// syntax is the error for a syntax error in a chunk after lines
// newlines of input.
func (e *chunkErr) syntax(name string, lines int) error {
	return fmt.Errorf("dataset: reading CSV for %q: %w", name,
		syntaxError(lines+e.startLine+1, lines+e.line+1, e.col, e.bareQuote))
}

// ---- The reader: record-boundary cuts ----------------------------------

// cutter reads the input in blocks and cuts it into chunks at record
// boundaries. It copies only the partial record a cut leaves behind,
// into the next chunk's buffer. A chunk holds at most math.MaxInt32
// bytes, so that int32 offsets address its cells. A stray quote flips
// the quote count for the rest of the input, so when a full buffer
// holds no boundary the cutter checks it for a syntax error before it
// reads on.
type cutter struct {
	rd      io.Reader
	size    int
	buf     []byte // read and not yet cut
	scanned int    // buf[:scanned] has been scanned for quotes and newlines
	quoted  bool   // buf[:scanned] holds an odd number of quotes
	cut     int    // end of the last record boundary in buf[:scanned], 0 if none
	err     error  // what ended the input: io.EOF, a read error, errRowTooLong or errSyntax
	stalls  int    // reads in a row that returned nothing
}

// next returns the next chunk, or nil once the input is used up: the
// bytes read up to the last record boundary once at least size bytes
// are held, or, once c.err is set, all that is left.
func (c *cutter) next() *chunk {
	for c.err == nil && (len(c.buf) < c.size || c.cut == 0) {
		if len(c.buf) == cap(c.buf) || len(c.buf) == math.MaxInt32 {
			if c.cut == 0 && len(c.buf) >= c.size && c.malformed() {
				c.err = errSyntax
				break
			}
			if len(c.buf) == math.MaxInt32 {
				c.err = errRowTooLong
				break
			}
			c.buf = slices.Grow(c.buf, max(c.size, len(c.buf)))
		}
		n, err := c.rd.Read(c.buf[len(c.buf):min(cap(c.buf), math.MaxInt32)])
		c.buf = c.buf[:len(c.buf)+n]
		c.scan()
		if n == 0 && err == nil {
			if c.stalls++; c.stalls == 100 {
				err = io.ErrNoProgress // as bufio.Reader, which the oracle reads through
			}
		} else {
			c.stalls = 0
		}
		if err != nil {
			c.err = err
		}
	}
	if c.err != nil {
		b := c.buf
		c.buf = nil
		if c.err == io.EOF && len(b) > 0 && b[len(b)-1] == '\r' {
			b = b[:len(b)-1] // encoding/csv drops a "\r" that ends the input
		}
		if len(b) == 0 {
			return nil
		}
		return &chunk{buf: b, truncated: c.err != io.EOF}
	}
	b := c.buf[:c.cut:c.cut]
	rest := c.buf[c.cut:]
	c.buf = make([]byte, len(rest), c.size+len(rest))
	copy(c.buf, rest)
	c.scanned -= c.cut
	c.cut = 0
	return &chunk{buf: b}
}

// malformed reports whether the bytes held have a syntax error before
// their last newline. It parses without writing, and only up to that
// newline, so that no error depends on bytes not read yet.
func (c *cutter) malformed() bool {
	p := parser{b: c.buf[:bytes.LastIndexByte(c.buf, '\n')+1], truncated: true}
	var rec []int32
	for {
		var st int
		rec, st = p.record(rec[:0])
		switch st {
		case recErr:
			return true
		case recNone, recEnd:
			return false
		}
	}
}

// scan moves the quote count and the last boundary over the bytes read
// since the last scan: a newline outside quotes is a boundary.
func (c *cutter) scan() {
	b := c.buf
	for i := c.scanned; i < len(b); {
		q := bytes.IndexByte(b[i:], '"')
		end := len(b)
		if q >= 0 {
			end = i + q
		}
		if !c.quoted {
			if nl := bytes.LastIndexByte(b[i:end], '\n'); nl >= 0 {
				c.cut = i + nl + 1
			}
		}
		if q < 0 {
			break
		}
		c.quoted = !c.quoted
		i = end + 1
	}
	c.scanned = len(b)
}

// ---- The workers: the record grammar ------------------------------------

// Outcomes of parser.record.
const (
	recOK   = iota // a record that ended with its newline
	recEnd         // a record that ran to the end of the chunk
	recNone        // no record: only blank lines were left
	recErr         // a syntax error, in parser.err
)

// fieldStop marks the bytes that end the scan of an unquoted field: the
// comma, the newline, and a quote, which is a syntax error there.
var fieldStop = [256]bool{',': true, '\n': true, '"': true}

// parser splits a chunk into records and fields with the grammar of
// encoding/csv's Reader as the oracle configures it: comma-separated,
// no comment character, strict quotes (LazyQuotes false), any number of
// fields. Every "\r\n" reads as "\n", blank lines are skipped, and a
// quoted field runs from its opening quote to a quote that is not
// doubled. The reader has already dropped a "\r" that ends the input.
// Lines and columns are counted as encoding/csv counts them, for its
// error positions.
type parser struct {
	b         []byte
	i         int  // read offset
	write     bool // unescape quoted fields in place; false only counts fields
	truncated bool // the input stops after b short of its end: a record that runs to b's end is cut short, not malformed
	line      int  // newlines before i
	lineStart int  // offset of the current line's first byte
	lastLen   int  // length of the line before it, its "\r\n" read as "\n"
	err       chunkErr
}

// record splits the next record into the bounds of its fields, appended
// to cells as (start, end) pairs, and reports how it ended.
func (p *parser) record(cells []int32) ([]int32, int) {
	b, i, n := p.b, p.i, len(p.b)
	for i < n { // blank lines are not records
		if b[i] == '\n' {
			i++
		} else if b[i] == '\r' && i+1 < n && b[i+1] == '\n' {
			i += 2
		} else {
			break
		}
		p.newline(i)
	}
	if i == n {
		p.i = i
		return cells, recNone
	}
	recLine := p.line
	for {
		if i < n && b[i] == '"' {
			// The cell is written over the field from its opening quote.
			s, w := i, i
			i++
			for {
				q := bytes.IndexByte(b[i:], '"')
				if q < 0 {
					p.quoted(w, i, n)
					p.i = n
					if p.truncated {
						return cells, recEnd
					}
					p.eofInQuotes(recLine)
					return cells, recErr
				}
				w = p.quoted(w, i, i+q)
				i += q + 1
				if i == n || b[i] != '"' {
					break
				}
				if p.write { // a doubled quote
					b[w] = '"'
				}
				w++
				i++
			}
			cells = append(cells, int32(s), int32(w))
			if i < n && b[i] != ',' && b[i] != '\n' && !(b[i] == '\r' && i+1 < n && b[i+1] == '\n') {
				p.fail(recLine, i-1, false) // text after the closing quote
				return cells, recErr
			}
		} else {
			s := i
			for i < n && !fieldStop[b[i]] {
				i++
			}
			if i < n && b[i] == '"' {
				p.fail(recLine, i, true)
				return cells, recErr
			}
			e := i
			if i < n && b[i] == '\n' && e > s && b[e-1] == '\r' {
				e--
			}
			cells = append(cells, int32(s), int32(e))
		}
		if i == n {
			p.i = i
			return cells, recEnd
		}
		if b[i] == ',' {
			i++
			continue
		}
		if b[i] == '\r' {
			i++
		}
		i++
		p.newline(i)
		p.i = i
		return cells, recOK
	}
}

// quoted copies the bytes b[i:e] of a quoted field, which hold no quote,
// to b[w:], each "\r\n" as "\n", and returns the new write offset. The
// write offset trails the read offset by at least the opening quote.
func (p *parser) quoted(w, i, e int) int {
	b := p.b
	for {
		nl := bytes.IndexByte(b[i:e], '\n')
		if nl < 0 {
			break
		}
		k, next := i+nl, i+nl+1
		if k > i && b[k-1] == '\r' {
			k--
		}
		if p.write {
			copy(b[w:], b[i:k])
			b[w+k-i] = '\n'
		}
		w += k - i + 1
		p.lastLen = k - p.lineStart + 1
		p.newline(next)
		i = next
	}
	if p.write {
		copy(b[w:], b[i:e])
	}
	return w + e - i
}

func (p *parser) newline(next int) {
	p.line++
	p.lineStart = next
}

// fail records a syntax error at offset at of the current line.
func (p *parser) fail(recLine, at int, bareQuote bool) {
	p.err = chunkErr{startLine: recLine, line: p.line, col: at - p.lineStart + 1, bareQuote: bareQuote}
}

// eofInQuotes records the error for input that ends inside a quoted
// field. encoding/csv places it just past the last line that holds a
// byte, that line's newline included.
func (p *parser) eofInQuotes(recLine int) {
	if p.lineStart == len(p.b) { // the input ends with a newline inside the quotes
		p.err = chunkErr{startLine: recLine, line: p.line - 1, col: p.lastLen + 1}
		return
	}
	p.err = chunkErr{startLine: recLine, line: p.line, col: len(p.b) - p.lineStart + 1}
}

// ---- The workers: one pass over a chunk ---------------------------------

// parse splits the chunk into records, checks each record's width and
// runs the cell pass over its fields as they are split. It reports
// whether the chunk parsed without error.
func (ch *chunk) parse(width int) bool {
	p := parser{b: ch.buf, write: true, truncated: ch.truncated}
	ch.cols = make([]colChunk, width)
	ch.est = bytes.Count(ch.buf, []byte{'\n'}) + 1
	rec := make([]int32, 0, 2*width)
	for {
		var st int
		rec, st = p.record(rec[:0])
		if st == recErr {
			ch.err = &p.err
			return false
		}
		if st == recNone || st == recEnd && ch.truncated {
			break // a record the read error cut short is no row
		}
		if len(rec) != 2*width {
			ch.err = &chunkErr{fields: len(rec) / 2}
			return false
		}
		for j := 0; j < width; j++ {
			ch.cell(j, rec[2*j], rec[2*j+1])
		}
		ch.rows++
	}
	ch.lines = p.line
	for j := range ch.cols {
		ch.cols[j].lookup = nil
	}
	return true
}

// cell trims cell (s, e) of column j and runs the column's speculation
// on it: ints while every cell parses as one, then floats (earlier rows
// re-parsed, so a Float is exactly ParseFloat of its cell, never a
// lossy int conversion), then strings, encoded against the chunk's
// shard dictionary from the first cell that is neither (earlier rows
// backfilled). An empty cell is neither, so it forces String, as in the
// buffered reader. A numeric column keeps its cells' bounds for the
// backfills and for a later chunk's flip.
func (ch *chunk) cell(j int, s, e int32) {
	s, e = trimSpaceRange(ch.buf, s, e)
	cc := &ch.cols[j]
	b := ch.buf[s:e]
	switch cc.mode {
	case chunkInt:
		if v, ok := parseIntBytes(b); ok {
			if cc.ints == nil {
				cc.ints = make([]int64, 0, ch.est)
				cc.bounds = make([]int32, 0, 2*ch.est)
			}
			cc.ints = append(cc.ints, v)
			cc.bounds = append(cc.bounds, s, e)
			return
		}
		if v, ok := parseFloatBytes(b); ok {
			ch.toFloats(j)
			cc.floats = append(cc.floats, v)
			cc.bounds = append(cc.bounds, s, e)
			return
		}
	case chunkFloat:
		if v, ok := parseFloatBytes(b); ok {
			cc.floats = append(cc.floats, v)
			cc.bounds = append(cc.bounds, s, e)
			return
		}
	}
	if cc.mode != chunkString {
		ch.toStrings(j)
	}
	cc.encode(b)
}

// cellBytes returns the trimmed cell of row r of numeric column cc.
func (ch *chunk) cellBytes(cc *colChunk, r int) []byte {
	return ch.buf[cc.bounds[2*r]:cc.bounds[2*r+1]]
}

// toFloats turns column j's cells so far from ints into floats, parsed
// again from the cells so that "-0" keeps its sign.
func (ch *chunk) toFloats(j int) {
	cc := &ch.cols[j]
	cc.mode = chunkFloat
	cc.floats = make([]float64, len(cc.ints), max(ch.est, len(cc.ints)))
	for r := range cc.floats {
		cc.floats[r], _ = parseFloatBytes(ch.cellBytes(cc, r))
	}
	cc.ints = nil
	if cc.bounds == nil {
		cc.bounds = make([]int32, 0, 2*ch.est)
	}
}

// toStrings encodes column j's cells so far against a fresh shard
// dictionary.
func (ch *chunk) toStrings(j int) {
	cc := &ch.cols[j]
	cc.mode = chunkString
	n := len(cc.bounds) / 2
	cc.codes = make([]int32, 0, max(ch.est, n))
	cc.lookup = make(map[string]int32)
	for r := range n {
		cc.encode(ch.cellBytes(cc, r))
	}
	cc.ints, cc.floats, cc.bounds = nil, nil, nil
}

// encode appends b's shard code, in chunk first-occurrence order.
func (cc *colChunk) encode(b []byte) {
	id, ok := cc.lookup[string(b)] // compiler-optimized: no alloc on hit
	if !ok {
		s := string(b)
		id = int32(len(cc.dict))
		cc.lookup[s] = id
		cc.dict = append(cc.dict, s)
	}
	cc.codes = append(cc.codes, id)
}

// ---- Assembly ------------------------------------------------------------

// assembleColumns folds parsed chunks into final columns: decide each
// column's type from the chunk modes, materialize values in parallel at
// (chunk × column) granularity, then merge string shard dictionaries
// per column in chunk order so codes land in global first-occurrence
// order. The columns own their arrays, so each is born with an append
// tail (withTail) and the first append writes after its rows.
func assembleColumns(name string, names []string, chunks []*chunk, rows, workers int) (*Relation, error) {
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
		for j := 0; j < width; j++ {
			tasks = append(tasks, func() {
				finalizeChunkCol(ch, j, modes[j], ints[j], floats[j])
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
		switch modes[j] {
		case chunkInt:
			cols[j] = NewIntColumn(names[j], ints[j]).withTail()
		case chunkFloat:
			cols[j] = NewFloatColumn(names[j], floats[j]).withTail()
		default:
			tasks = append(tasks, func() {
				cols[j] = mergeStringCol(names[j], chunks, j, rows)
			})
		}
	}
	runTasks(workers, tasks)
	return NewRelation(name, cols)
}

// finalizeChunkCol materializes one chunk's slice of one final column.
func finalizeChunkCol(ch *chunk, j int, mode int8, ints []int64, floats []float64) {
	cc := &ch.cols[j]
	switch {
	case mode == chunkInt:
		copy(ints[ch.rowOff:], cc.ints)
	case mode == chunkFloat && cc.mode == chunkFloat:
		copy(floats[ch.rowOff:], cc.floats)
	case mode == chunkFloat:
		// This chunk stayed all-int but another chunk forced Float:
		// re-parse so values are bitwise ParseFloat results ("-0" must
		// become -0.0, not float64(0)).
		for r := 0; r < ch.rows; r++ {
			floats[ch.rowOff+r], _ = parseFloatBytes(ch.cellBytes(cc, r))
		}
	case cc.mode != chunkString:
		// This chunk stayed numeric but another chunk forced String.
		ch.toStrings(j)
		cc.lookup = nil
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
func mergeStringCol(name string, chunks []*chunk, j, rows int) *Column {
	dict := make(map[string]int32)
	var values []string
	var valueBytes int64
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
				valueBytes += int64(len(v))
			}
			remap[s] = g
		}
		out := codes[ch.rowOff : ch.rowOff+ch.rows]
		for i, sc := range cc.codes {
			out[i] = remap[sc]
		}
	}
	strs := make([]string, rows)
	var strBytes int64
	for i, cd := range codes {
		strs[i] = values[cd]
		strBytes += int64(len(strs[i]))
	}
	c := &Column{Name: name, Type: String, Strings: strs, Codes: codes, dict: dict, values: values,
		interned: true, strBytes: strBytes, valueBytes: valueBytes}
	return c.withTail()
}

// runTasks executes the tasks on up to workers goroutines and waits.
func runTasks(workers int, tasks []func()) {
	par.Do(workers, len(tasks), func(i int) { tasks[i]() })
}

// ---- Cell-level parsing helpers ------------------------------------------

// bstr views a byte slice as a string without copying, for handing
// chunk cells to strconv. A cell's bytes are final once its field is
// split (unescaping writes only past it), and strconv does not retain
// its argument, so the view cannot outlive valid bytes.
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
	if len(b) == 0 {
		return 0, false
	}
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
// cells stay addressable inside the chunk instead of becoming
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
