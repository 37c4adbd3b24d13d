package dataset

// Snapshot hooks for the on-disk columnar store (internal/colstore).
// The store serializes a string column as its dictionary (distinct
// values in code order) plus per-row codes; these accessors expose that
// decomposition and rebuild a Column from it without going through the
// per-row re-encoding of NewStringColumn. Restored columns are
// reflect.DeepEqual-identical to the originals, including the
// unexported dictionary map and interned flag — the round-trip
// invariant the colstore tests pin.

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
// dictionary map is rebuilt from values.
func RestoreStringColumn(name string, values []string, codes []int32, interned bool) (*Column, error) {
	dict := make(map[string]int32, len(values))
	for i, v := range values {
		if _, dup := dict[v]; dup {
			return nil, fmt.Errorf("dataset: column %q: duplicate dictionary value %q", name, v)
		}
		dict[v] = int32(i)
	}
	strs := make([]string, len(codes))
	for i, code := range codes {
		if code < 0 || int(code) >= len(values) {
			return nil, fmt.Errorf("dataset: column %q: row %d code %d out of dictionary range %d",
				name, i, code, len(values))
		}
		strs[i] = values[code]
	}
	return &Column{Name: name, Type: String, Strings: strs, Codes: codes, dict: dict, values: values, interned: interned}, nil
}
