package dataset

// Snapshot hooks for the on-disk columnar store (internal/colstore).
// The store serializes a string column as its dictionary (distinct
// values in code order) plus per-row codes; these accessors expose that
// decomposition and rebuild a Column from it without going through the
// per-row re-encoding of NewStringColumn. A restored column holds the
// original's values, codes, dictionary, interned flag and MemBytes —
// the round-trip invariant the colstore tests pin. It has no append
// tail: its first append copies it, so nothing writes into a mapping.

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
// (package pli).
func RestoreStringColumn(name string, values []string, codes []int32, interned bool) (*Column, error) {
	dict := make(map[string]int32, len(values))
	var valueBytes int64
	for i, v := range values {
		if _, dup := dict[v]; dup {
			return nil, fmt.Errorf("dataset: column %q: duplicate dictionary value %q", name, v)
		}
		dict[v] = int32(i)
		valueBytes += int64(len(v))
	}
	strs := make([]string, len(codes))
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
	return &Column{Name: name, Type: String, Strings: strs, Codes: codes, dict: dict, values: values,
		interned: interned, strBytes: strBytes, valueBytes: valueBytes}, nil
}
