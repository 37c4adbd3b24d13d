package pli

import (
	"math"
	"slices"

	"adc/internal/dataset"
)

// nanKey is OrderKey's key for NaN, below every number's.
const nanKey = 0

// OrderKey maps a number to a key that sorts as the number does: NaN
// below every number, −0 and +0 to one key. A non-negative float's
// bits with the sign bit set, and a negative float's bits inverted,
// compare as unsigned integers in IEEE order; no number maps to 0,
// whose only preimage (all bits set) is a NaN.
func OrderKey(v float64) uint64 {
	if v != v {
		return nanKey
	}
	if v == 0 {
		v = 0 // −0 and +0 are one value
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// Order returns rows sorted by their values in the numeric column c,
// ascending: NaN first, −0 equal to +0, rows of equal value in the
// order rows lists them. Int values are ordered by their float64
// images, as every numeric index keys them. rows itself is not
// modified.
func Order(c *dataset.Column, rows []int32) []int32 {
	_, sorted := sortedKeys(c, slices.Clone(rows))
	return sorted
}

// sortedKeys is Order that also returns the sorted rows' keys. It
// sorts rows in place or into a new buffer.
func sortedKeys(c *dataset.Column, rows []int32) ([]uint64, []int32) {
	keys := make([]uint64, len(rows))
	fillKeys(keys, c, rows)
	return radixSort(keys, rows)
}

// startsValue reports whether the x-th of the sorted keys starts a new
// value: it is the first, differs from the one before, or is a NaN's,
// which equals nothing, itself included.
func startsValue(keys []uint64, x int) bool {
	return x == 0 || keys[x] != keys[x-1] || keys[x] == nanKey
}

// identity returns the rows 0, 1, …, n−1.
func identity(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// fillKeys writes the order key of each row of rows in c to keys.
func fillKeys(keys []uint64, c *dataset.Column, rows []int32) {
	switch c.Type {
	case dataset.Int:
		for x, r := range rows {
			keys[x] = OrderKey(float64(c.Ints[r]))
		}
	case dataset.Float:
		for x, r := range rows {
			keys[x] = OrderKey(c.Floats[r])
		}
	default:
		panic("pli: ordering string column " + c.Name)
	}
}

// radixSort sorts keys ascending, carrying rows along, by a stable
// least-significant-digit radix sort over the keys' bytes: one counting
// pass over all eight bytes, then one scatter per byte position, except
// positions where every key holds the same byte, which cannot reorder
// anything. It returns the sorted keys and rows, which are either the
// arguments or buffers of the same length.
func radixSort(keys []uint64, rows []int32) ([]uint64, []int32) {
	n := len(keys)
	if n < 2 {
		return keys, rows
	}
	var counts [8][256]int32
	for _, k := range keys {
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	var bufKeys []uint64
	var bufRows []int32
	for d := range counts {
		shift := 8 * uint(d)
		pos := &counts[d]
		if pos[byte(keys[0]>>shift)] == int32(n) {
			continue
		}
		if bufKeys == nil {
			bufKeys, bufRows = make([]uint64, n), make([]int32, n)
		}
		off := int32(0)
		for b, cnt := range pos {
			pos[b] = off
			off += cnt
		}
		for x, k := range keys {
			b := byte(k >> shift)
			p := pos[b]
			pos[b]++
			bufKeys[p], bufRows[p] = k, rows[x]
		}
		keys, bufKeys = bufKeys, keys
		rows, bufRows = bufRows, rows
	}
	return keys, rows
}
