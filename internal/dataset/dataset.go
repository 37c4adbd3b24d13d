// Package dataset provides the typed relational layer underneath the
// miner: relations with string, integer, and float columns, dictionary
// encoding for fast equality comparisons, CSV ingestion with type
// inference, and row sampling/projection.
//
// The paper (Section 3) defines a database D over a relation
// R(A1, ..., Ak) as a finite set of tuples; this package is that
// substrate. Columns are stored column-major because the evidence-set
// builders (package evidence) stream down columns, not across rows.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Type is the type of a column.
type Type int

const (
	// String columns support only the operators = and !=.
	String Type = iota
	// Int columns support all six comparison operators.
	Int
	// Float columns support all six comparison operators.
	Float
)

func (t Type) String() string {
	switch t {
	case String:
		return "string"
	case Int:
		return "int"
	case Float:
		return "float"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Numeric reports whether the type supports order comparisons.
func (t Type) Numeric() bool { return t == Int || t == Float }

// Column is a single typed attribute of a relation, stored column-major.
// Exactly one of Ints, Floats, or Strings is populated, matching Type.
// For String columns, Codes holds a dictionary code per row such that two
// rows hold equal strings iff their codes are equal; this is what the
// evidence builders compare.
type Column struct {
	Name    string
	Type    Type
	Ints    []int64
	Floats  []float64
	Strings []string
	Codes   []int32 // dictionary codes, String columns only
	// dict and values are the dictionary both ways: dict maps a value
	// to its code and values[code] is that value, so codes are dense
	// and in first-occurrence order. Neither is written after the
	// column is built; a column grown by AppendRows shares them until
	// a batch adds a value.
	dict   map[string]int32
	values []string
	// interned marks String columns whose Strings entries alias the
	// dictionary (one string object per distinct value, built by the
	// streaming ingest path and kept by appends of known values), so
	// MemBytes can count each value's bytes once instead of once per
	// row.
	interned bool
	// strBytes and valueBytes total the bytes of Strings and of values,
	// kept by every constructor and append so MemBytes reads no row.
	strBytes, valueBytes int64
	// tail is the backing store this version's slices are cut from. It
	// is nil for a column over slices it does not own, which are never
	// written: the constructors' (the caller's) and a snapshot's decoded
	// without room (views of its buffer); the first append copies such
	// a column. Ingest, a restore with room and every append give their
	// columns one.
	tail *tail
}

// NewStringColumn builds a dictionary-encoded string column.
func NewStringColumn(name string, values []string) *Column {
	c := &Column{Name: name, Type: String, Strings: values}
	c.buildDict()
	return c
}

// NewIntColumn builds an integer column.
func NewIntColumn(name string, values []int64) *Column {
	return &Column{Name: name, Type: Int, Ints: values}
}

// NewFloatColumn builds a float column.
func NewFloatColumn(name string, values []float64) *Column {
	return &Column{Name: name, Type: Float, Floats: values}
}

func (c *Column) buildDict() {
	c.dict = make(map[string]int32)
	c.values = []string{} // empty, not nil, like a decoded snapshot's
	c.Codes = make([]int32, len(c.Strings))
	for i, s := range c.Strings {
		code, ok := c.dict[s]
		if !ok {
			code = int32(len(c.values))
			c.dict[s] = code
			c.values = append(c.values, s)
			c.valueBytes += int64(len(s))
		}
		c.Codes[i] = code
		c.strBytes += int64(len(s))
	}
}

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	switch c.Type {
	case Int:
		return len(c.Ints)
	case Float:
		return len(c.Floats)
	default:
		return len(c.Strings)
	}
}

// Num returns the numeric value of row i. It panics on String columns.
func (c *Column) Num(i int) float64 {
	switch c.Type {
	case Int:
		return float64(c.Ints[i])
	case Float:
		return c.Floats[i]
	}
	panic("dataset: Num on string column " + c.Name)
}

// EqualRows reports whether rows i and j hold equal values.
func (c *Column) EqualRows(i, j int) bool {
	switch c.Type {
	case Int:
		return c.Ints[i] == c.Ints[j]
	case Float:
		return c.Floats[i] == c.Floats[j]
	default:
		return c.Codes[i] == c.Codes[j]
	}
}

// Compare returns -1, 0, or +1 ordering row i of c against row j of o.
// Both columns must be numeric.
func (c *Column) Compare(i int, o *Column, j int) int {
	a, b := c.Num(i), o.Num(j)
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// EqualCross reports whether row i of c equals row j of column o.
// The columns must have the same Type (for String columns the comparison
// is on the raw strings, since dictionaries are per column).
func (c *Column) EqualCross(i int, o *Column, j int) bool {
	if c.Type.Numeric() && o.Type.Numeric() {
		return c.Num(i) == o.Num(j)
	}
	return c.Strings[i] == o.Strings[j]
}

// ValueString renders row i for display.
func (c *Column) ValueString(i int) string {
	switch c.Type {
	case Int:
		return strconv.FormatInt(c.Ints[i], 10)
	case Float:
		return strconv.FormatFloat(c.Floats[i], 'g', -1, 64)
	default:
		return c.Strings[i]
	}
}

// DistinctCount returns the number of distinct values in the column.
func (c *Column) DistinctCount() int {
	switch c.Type {
	case Int:
		m := make(map[int64]struct{}, len(c.Ints))
		for _, v := range c.Ints {
			m[v] = struct{}{}
		}
		return len(m)
	case Float:
		m := make(map[float64]struct{}, len(c.Floats))
		for _, v := range c.Floats {
			m[v] = struct{}{}
		}
		return len(m)
	default:
		return len(c.dict)
	}
}

// ValueCounts is the multiset of a column's values, built once per
// column so that the predicate space's 30% common-values rule (Section
// 4.2, item 1) can compare every pair of columns without building a
// value set per pair. Numeric columns key their values by Num, so Int
// and Float values compare as numbers, −0 equals +0 and NaN equals
// nothing, as under ==.
type ValueCounts struct {
	numeric bool
	rows    int
	nums    map[float64]int
	strs    map[string]int
}

// ValueCounts counts the column's distinct values.
func (c *Column) ValueCounts() *ValueCounts {
	v := &ValueCounts{numeric: c.Type.Numeric(), rows: c.Len()}
	if v.numeric {
		v.nums = make(map[float64]int)
		for i := 0; i < v.rows; i++ {
			v.nums[c.Num(i)]++
		}
		return v
	}
	v.strs = make(map[string]int)
	for _, s := range c.Strings {
		v.strs[s]++
	}
	return v
}

// SharedValueFraction returns the fraction of the rows behind v whose
// value also appears in o. Columns of different broad kinds (numeric vs
// string) share nothing.
func (v *ValueCounts) SharedValueFraction(o *ValueCounts) float64 {
	if v.rows == 0 || v.numeric != o.numeric {
		return 0
	}
	var hits int
	if v.numeric {
		hits = sharedRows(v.nums, o.nums)
	} else {
		hits = sharedRows(v.strs, o.strs)
	}
	return float64(hits) / float64(v.rows)
}

// sharedRows counts the rows of a whose value is a key of b, scanning
// whichever map has fewer keys.
func sharedRows[K comparable](a, b map[K]int) int {
	hits := 0
	if len(a) <= len(b) {
		for k, n := range a {
			if _, ok := b[k]; ok {
				hits += n
			}
		}
		return hits
	}
	for k := range b {
		hits += a[k]
	}
	return hits
}

// Project returns a new column containing the given rows, in order.
func (c *Column) Project(rows []int) *Column {
	switch c.Type {
	case Int:
		v := make([]int64, len(rows))
		for k, r := range rows {
			v[k] = c.Ints[r]
		}
		return NewIntColumn(c.Name, v)
	case Float:
		v := make([]float64, len(rows))
		for k, r := range rows {
			v[k] = c.Floats[r]
		}
		return NewFloatColumn(c.Name, v)
	default:
		v := make([]string, len(rows))
		for k, r := range rows {
			v[k] = c.Strings[r]
		}
		return NewStringColumn(c.Name, v)
	}
}

// Relation is a database D over a single relation symbol: a sequence of
// typed columns of equal length.
type Relation struct {
	Name    string
	Columns []*Column
	n       int
}

// NewRelation builds a relation from columns, validating equal lengths
// and distinct names.
func NewRelation(name string, cols []*Column) (*Relation, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("dataset: relation %q has no columns", name)
	}
	n := cols[0].Len()
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if c.Len() != n {
			return nil, fmt.Errorf("dataset: relation %q: column %q has %d rows, want %d",
				name, c.Name, c.Len(), n)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("dataset: relation %q: duplicate column %q", name, c.Name)
		}
		seen[c.Name] = true
	}
	return &Relation{Name: name, Columns: cols, n: n}, nil
}

// MustNewRelation is NewRelation that panics on error, for tests and
// generators with statically known shapes.
func MustNewRelation(name string, cols []*Column) *Relation {
	r, err := NewRelation(name, cols)
	if err != nil {
		panic(err)
	}
	return r
}

// NumRows returns |D|.
func (r *Relation) NumRows() int { return r.n }

// NumColumns returns the number of attributes.
func (r *Relation) NumColumns() int { return len(r.Columns) }

// Column returns the column with the given name, or nil.
func (r *Relation) Column(name string) *Column {
	for _, c := range r.Columns {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ColumnIndex returns the index of the named column, or -1.
func (r *Relation) ColumnIndex(name string) int {
	for i, c := range r.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Project returns a new relation containing the given rows, in order.
// Row indexes may repeat.
func (r *Relation) Project(rows []int) *Relation {
	cols := make([]*Column, len(r.Columns))
	for i, c := range r.Columns {
		cols[i] = c.Project(rows)
	}
	out, err := NewRelation(r.Name, cols)
	if err != nil {
		panic(err) // projection preserves shape invariants
	}
	return out
}

// Sample returns a uniform sample (without replacement) of the given
// fraction of rows, using rng. Fraction is clamped to [0, 1]; at least one
// row is returned for any positive fraction on a nonempty relation.
// This is the Sampler component of ADCMiner (Figure 1, step 2).
func (r *Relation) Sample(fraction float64, rng *rand.Rand) *Relation {
	if fraction >= 1 {
		return r
	}
	if fraction < 0 {
		fraction = 0
	}
	k := int(float64(r.n) * fraction)
	if k < 1 && fraction > 0 && r.n > 0 {
		k = 1
	}
	perm := rng.Perm(r.n)[:k]
	sort.Ints(perm)
	return r.Project(perm)
}

// Row renders row i as "(v1, v2, ...)", for debugging and examples.
func (r *Relation) Row(i int) string {
	var sb strings.Builder
	sb.WriteByte('(')
	for k, c := range r.Columns {
		if k > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.ValueString(i))
	}
	sb.WriteByte(')')
	return sb.String()
}
