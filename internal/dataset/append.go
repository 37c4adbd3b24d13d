package dataset

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// AppendRows returns a new relation consisting of r's rows followed by
// the given records, each a string value per column in column order.
// Cells are trimmed of surrounding whitespace, as both CSV readers trim
// them, then parsed against the existing column types — appending never
// re-infers or widens a column, so "12x" into an Int column is an
// error, not a silent conversion to String. The receiver is not
// modified: column storage is copied, and each appended string is
// looked up in the column's dictionary, so only appended values are
// hashed. A value already in the dictionary keeps its code and its row
// aliases the dictionary's string; the grown column shares the
// dictionary when no value is new. New values take the next codes in
// first-appearance order in a copy of the dictionary. Codes are thus
// exactly those NewStringColumn assigns over all rows, and existing
// rows keep theirs (incremental PLI extension depends on this).
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
	cols := make([]*Column, len(r.Columns))
	for j, c := range r.Columns {
		grown, err := c.appendValues(records, j)
		if err != nil {
			return nil, fmt.Errorf("dataset: relation %q: %w", r.Name, err)
		}
		cols[j] = grown
	}
	return NewRelation(r.Name, cols)
}

func (c *Column) appendValues(records [][]string, j int) (*Column, error) {
	n := c.Len()
	switch c.Type {
	case Int:
		v := make([]int64, n, n+len(records))
		copy(v, c.Ints)
		for k, rec := range records {
			x, err := strconv.ParseInt(strings.TrimSpace(rec[j]), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("appended row %d: %q is not an int for column %q", k, rec[j], c.Name)
			}
			v = append(v, x)
		}
		return NewIntColumn(c.Name, v), nil
	case Float:
		v := make([]float64, n, n+len(records))
		copy(v, c.Floats)
		for k, rec := range records {
			x, err := strconv.ParseFloat(strings.TrimSpace(rec[j]), 64)
			if err != nil {
				return nil, fmt.Errorf("appended row %d: %q is not a float for column %q", k, rec[j], c.Name)
			}
			v = append(v, x)
		}
		return NewFloatColumn(c.Name, v), nil
	default:
		if c.dict == nil {
			return nil, fmt.Errorf("column %q has no dictionary", c.Name)
		}
		strs := make([]string, n, n+len(records))
		copy(strs, c.Strings)
		codes := make([]int32, n, n+len(records))
		copy(codes, c.Codes)
		dict, values, added := c.dict, c.values, false
		for _, rec := range records {
			s := strings.TrimSpace(rec[j])
			code, ok := dict[s]
			if !ok {
				if !added {
					// c and its other descendants share dict and
					// values: write only to copies.
					dict, values, added = maps.Clone(dict), slices.Clip(values), true
				}
				code = int32(len(values))
				dict[s] = code
				values = append(values, s)
			}
			strs = append(strs, values[code])
			codes = append(codes, code)
		}
		// Every appended row aliases a dictionary string, so a batch
		// of known values keeps an interned column interned. A batch
		// that adds a value clears the mark, as NewStringColumn over
		// the grown values does, so such a column snapshots to the
		// same bytes as a rebuilt one.
		return &Column{Name: c.Name, Type: String, Strings: strs, Codes: codes,
			dict: dict, values: values, interned: c.interned && !added}, nil
	}
}

// MemBytes estimates the heap footprint of the column: value storage,
// dictionary codes, and for string columns the string bytes plus a
// nominal per-entry overhead for headers and the dictionary. Interned
// columns (streaming ingest) count each distinct value's bytes once —
// every row aliases a dictionary entry, so per-row accounting would
// charge the session memory cap for bytes that were never allocated.
func (c *Column) MemBytes() int64 {
	switch c.Type {
	case Int:
		return int64(len(c.Ints)) * 8
	case Float:
		return int64(len(c.Floats)) * 8
	default:
		b := int64(len(c.Codes)) * 4
		if c.interned {
			b += int64(len(c.Strings)) * 16 // headers only; bytes shared
		} else {
			for _, s := range c.Strings {
				b += int64(len(s)) + 16
			}
		}
		for _, s := range c.values {
			b += int64(len(s)) + 24
		}
		return b
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
