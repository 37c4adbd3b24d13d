package dataset

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// tail is the append-only backing store the versions of one column
// lineage share: every row written so far. A version with n rows views
// the first n; the version with rows rows is the newest, and an append
// to it claims the tail and writes its rows after them, in place while
// the arrays have room (append's growth leaves room for the next
// ones). Every other append copies into a fresh tail of exactly its
// rows. A column whose arrays it owns is born the first version of a
// tail (withTail): ingest's columns, and a restore's columns decoded
// with room for the rows its log will add (WithRoom). Exactly one of
// ints, floats, or codes with strs is in use.
type tail struct {
	mu   sync.Mutex
	rows int // rows claimed; guarded by mu

	// The arrays are written only by the append that claimed their
	// rows, so they need no lock: no other version reads past its own
	// length, and the next claim follows the publication of this one.
	ints   []int64
	floats []float64
	codes  []int32
	strs   []string
}

// claim reports whether the version with n rows is t's newest and, if
// so, takes the k rows after it for its caller: of several appends to
// one version, concurrent or not, exactly one wins. A nil tail (a
// column never appended to) claims nothing.
func (t *tail) claim(n, k int) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rows != n {
		return false
	}
	t.rows = n + k
	return true
}

// AppendRows returns a new relation consisting of r's rows followed by
// the given records, each a string value per column in column order.
// Cells are trimmed of surrounding whitespace, as both CSV readers trim
// them, then parsed against the existing column types — appending never
// re-infers or widens a column, so "12x" into an Int column is an
// error, not a silent conversion to String. The receiver is not
// modified. On the newest version of a column the appended rows are
// written in place after the receiver's (see tail); any other append
// copies the column once. Either way each version's slices are cut to
// its own length, so its readers never see another version's rows.
// Each appended string is looked up in the column's dictionary, so
// only appended values are hashed. A value already in the dictionary
// keeps its code and its row aliases the dictionary's string; the grown
// column shares the dictionary when no value is new. New values take
// the next codes in first-appearance order in a copy of the dictionary.
// Codes are thus exactly those NewStringColumn assigns over all rows,
// and existing rows keep theirs (incremental PLI extension depends on
// this).
func (r *Relation) AppendRows(records [][]string) (*Relation, error) {
	if len(records) == 0 {
		return r, nil
	}
	for k, rec := range records {
		if len(rec) != len(r.Columns) {
			return nil, fmt.Errorf("dataset: relation %q: appended row %d has %d fields, want %d",
				r.Name, k, len(rec), len(r.Columns))
		}
	}
	// Parse every column before any is written: a batch a later column
	// rejects leaves every tail as it was, still appendable in place.
	batches := make([]batch, len(r.Columns))
	for j, c := range r.Columns {
		b, err := c.parse(records, j)
		if err != nil {
			return nil, fmt.Errorf("dataset: relation %q: %w", r.Name, err)
		}
		batches[j] = b
	}
	cols := make([]*Column, len(r.Columns))
	for j, c := range r.Columns {
		cols[j] = c.grow(batches[j], len(records))
	}
	return NewRelation(r.Name, cols)
}

// batch is one column's part of an appended batch, parsed: the values
// of a numeric column, the trimmed cells of a string column.
type batch struct {
	ints   []int64
	floats []float64
	strs   []string
}

// parse reads c's cells of the records, field j of each, against c's
// type; it writes nothing.
func (c *Column) parse(records [][]string, j int) (batch, error) {
	var b batch
	switch c.Type {
	case Int:
		b.ints = make([]int64, len(records))
		for k, rec := range records {
			x, err := strconv.ParseInt(strings.TrimSpace(rec[j]), 10, 64)
			if err != nil {
				return b, fmt.Errorf("appended row %d: %q is not an int for column %q", k, rec[j], c.Name)
			}
			b.ints[k] = x
		}
	case Float:
		b.floats = make([]float64, len(records))
		for k, rec := range records {
			x, err := strconv.ParseFloat(strings.TrimSpace(rec[j]), 64)
			if err != nil {
				return b, fmt.Errorf("appended row %d: %q is not a float for column %q", k, rec[j], c.Name)
			}
			b.floats[k] = x
		}
	default:
		if c.dict == nil {
			return b, fmt.Errorf("column %q has no dictionary", c.Name)
		}
		b.strs = make([]string, len(records))
		for k, rec := range records {
			b.strs[k] = strings.TrimSpace(rec[j])
		}
	}
	return b, nil
}

// grow returns the version of c with the k rows of b after its own. It
// writes them into c's tail when c is the tail's newest version, where
// append's growth, when the tail is full, leaves room for the next
// appends to be in place too. Otherwise (an older version, a sibling
// that lost the claim, or a column with no tail, whose slices may be
// the caller's or view an mmap) it copies c's rows into a fresh tail of
// exactly the grown length, so that path costs one copy and leaves no
// spare capacity.
func (c *Column) grow(b batch, k int) *Column {
	n, m := c.Len(), c.Len()+k
	g := &Column{Name: c.Name, Type: c.Type}
	var codes []int32
	if c.Type == String {
		g.dict, g.values, g.valueBytes = c.dict, c.values, c.valueBytes
		codes = g.encode(b.strs)
		// Every appended row aliases a dictionary string, so a batch
		// of known values keeps an interned column interned. A batch
		// that adds a value clears the mark, as NewStringColumn over
		// the grown values does, so such a column snapshots to the
		// same bytes as a rebuilt one.
		g.interned = c.interned && len(g.values) == len(c.values)
		g.strBytes = c.strBytes
		for _, s := range b.strs {
			g.strBytes += int64(len(s))
		}
	}
	t := c.tail
	if !t.claim(n, k) {
		t = &tail{rows: m}
		switch c.Type {
		case Int:
			t.ints = clone(c.Ints, m)
		case Float:
			t.floats = clone(c.Floats, m)
		default:
			t.codes, t.strs = clone(c.Codes, m), clone(c.Strings, m)
		}
	}
	g.tail = t
	switch c.Type {
	case Int:
		t.ints = append(t.ints, b.ints...)
		g.Ints = t.ints[:m:m]
	case Float:
		t.floats = append(t.floats, b.floats...)
		g.Floats = t.floats[:m:m]
	default:
		t.codes = append(t.codes, codes...)
		for _, code := range codes {
			t.strs = append(t.strs, g.values[code])
		}
		g.Codes, g.Strings = t.codes[:m:m], t.strs[:m:m]
	}
	return g
}

// clone copies s into a fresh array of capacity m.
func clone[T any](s []T, m int) []T {
	out := make([]T, len(s), m)
	copy(out, s)
	return out
}

// withTail makes c, which must own its arrays, the first version of a
// tail over them that claims its rows, so that its first append writes
// after them instead of copying c: in place while the arrays' capacity
// lasts, regrowing them once when it does not. c's own slices are cut
// to its rows, as every version's are.
func (c *Column) withTail() *Column {
	n := c.Len()
	t := &tail{rows: n}
	switch c.Type {
	case Int:
		t.ints, c.Ints = c.Ints, c.Ints[:n:n]
	case Float:
		t.floats, c.Floats = c.Floats, c.Floats[:n:n]
	default:
		t.codes, c.Codes = c.Codes, c.Codes[:n:n]
		t.strs, c.Strings = c.Strings, c.Strings[:n:n]
	}
	c.tail = t
	return c
}

// encode returns the codes of the appended values in c's dictionary,
// which c shares with the version it grows from: the first new value
// copies the dictionary, and it and later new values take the next
// codes in the copy.
func (c *Column) encode(add []string) []int32 {
	codes := make([]int32, len(add))
	added := false
	for k, s := range add {
		code, ok := c.dict[s]
		if !ok {
			if !added {
				c.dict, c.values, added = maps.Clone(c.dict), slices.Clip(c.values), true
			}
			code = int32(len(c.values))
			c.dict[s] = code
			c.values = append(c.values, s)
			c.valueBytes += int64(len(s))
		}
		codes[k] = code
	}
	return codes
}

// MemBytes estimates the heap footprint of the column: value storage,
// dictionary codes, and for string columns the string bytes plus a
// nominal per-entry overhead for headers and the dictionary. Interned
// columns (streaming ingest) count each distinct value's bytes once —
// every row aliases a dictionary entry, so per-row accounting would
// charge the session memory cap for bytes that were never allocated.
// Spare capacity in a tail is not charged. The string totals are kept
// by the constructors and appends, so this reads no row.
func (c *Column) MemBytes() int64 {
	switch c.Type {
	case Int:
		return int64(len(c.Ints)) * 8
	case Float:
		return int64(len(c.Floats)) * 8
	default:
		b := int64(len(c.Codes))*4 + int64(len(c.Strings))*16 + c.valueBytes + int64(len(c.values))*24
		if c.interned {
			return b
		}
		strBytes := c.strBytes
		if c.dict == nil { // hand-built: no totals were kept
			for _, s := range c.Strings {
				strBytes += int64(len(s))
			}
		}
		return b + strBytes
	}
}

// MemBytes estimates the heap footprint of the relation's columns.
func (r *Relation) MemBytes() int64 {
	var b int64
	for _, c := range r.Columns {
		b += c.MemBytes()
	}
	return b
}
