package dataset

// Snapshot hooks for the on-disk columnar store (internal/colstore).
// The store serializes a string column as its dictionary (distinct
// values in code order) plus per-row codes; these accessors expose that
// decomposition and rebuild a Column from it without going through the
// per-row re-encoding of NewStringColumn. A restored column holds the
// original's values, codes, dictionary, interned flag and MemBytes —
// the round-trip invariant the colstore tests pin. A restore that
// replays no log decodes with no room: its columns view the snapshot's
// buffer and have no append tail, so their first append copies them
// and nothing writes into a mapping. A restore with logged rows to
// replay decodes with room for them: its columns copy their arrays out
// of the buffer once, at that capacity, into a tail that claims the
// snapshot's rows, so the replay writes in place.

import (
	"fmt"
	"slices"
)

// DictSnapshot returns the column's dictionary values in code order
// (values[code] is the string encoded as code) and whether the column
// interns its per-row strings. The values slice is the column's own
// and must not be modified. It errors on non-string columns and on
// hand-built columns that carry no dictionary — such a column cannot
// be rebuilt from (values, codes) alone.
func (c *Column) DictSnapshot() (values []string, interned bool, err error) {
	if c.Type != String {
		return nil, false, fmt.Errorf("dataset: column %q is %s, not string", c.Name, c.Type)
	}
	if c.dict == nil {
		return nil, false, fmt.Errorf("dataset: column %q has no dictionary", c.Name)
	}
	return slices.Clip(c.values), c.interned, nil
}

// RestoreStringColumn rebuilds a dictionary-encoded string column from
// its snapshot decomposition: dictionary values in code order, per-row
// codes, and the interned flag. Per-row strings alias the dictionary
// entries (content-equal to any original, interned or not); the
// dictionary map is rebuilt from values. The codes must number the
// values densely in first-occurrence order, as every other constructor
// does: each row holds a code already seen or the next unused one, and
// every value is used. A string index's cluster IDs are then the codes
// (package pli). With room 0 the column views codes and has no tail;
// otherwise it copies codes and fills its per-row strings once, at the
// capacity of room more rows, and is born the first version of a tail
// over them (see WithRoom).
func RestoreStringColumn(name string, values []string, codes []int32, interned bool, room int) (*Column, error) {
	dict := make(map[string]int32, len(values))
	var valueBytes int64
	for i, v := range values {
		if _, dup := dict[v]; dup {
			return nil, fmt.Errorf("dataset: column %q: duplicate dictionary value %q", name, v)
		}
		dict[v] = int32(i)
		valueBytes += int64(len(v))
	}
	if room > 0 {
		codes = clone(codes, len(codes)+room)
	}
	strs := make([]string, len(codes), len(codes)+room)
	var strBytes int64
	next := int32(0)
	for i, code := range codes {
		switch {
		case code < 0 || int(code) >= len(values):
			return nil, fmt.Errorf("dataset: column %q: row %d code %d out of dictionary range %d",
				name, i, code, len(values))
		case code > next:
			return nil, fmt.Errorf("dataset: column %q: row %d code %d is not in first-occurrence order (next new code %d)",
				name, i, code, next)
		case code == next:
			next++
		}
		strs[i] = values[code]
		strBytes += int64(len(strs[i]))
	}
	if int(next) != len(values) {
		return nil, fmt.Errorf("dataset: column %q: rows use %d of %d dictionary values", name, next, len(values))
	}
	c := &Column{Name: name, Type: String, Strings: strs, Codes: codes, dict: dict, values: values,
		interned: interned, strBytes: strBytes, valueBytes: valueBytes}
	if room > 0 {
		c.withTail()
	}
	return c, nil
}

// WithRoom returns c as a column that owns its arrays, with capacity
// for room more rows, and is the first version of a tail that claims
// its rows: appends to it and then to each newest version write in
// place until they have added room rows. c may view a snapshot's
// mapping: its arrays are copied out once and never written. With room
// 0 WithRoom returns c itself.
func (c *Column) WithRoom(room int) *Column {
	if room == 0 {
		return c
	}
	g, m := *c, c.Len()+room
	switch c.Type {
	case Int:
		g.Ints = clone(c.Ints, m)
	case Float:
		g.Floats = clone(c.Floats, m)
	default:
		g.Codes, g.Strings = clone(c.Codes, m), clone(c.Strings, m)
	}
	return g.withTail()
}
