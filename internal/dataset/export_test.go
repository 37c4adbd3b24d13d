package dataset

import "unsafe"

// Test-only exports: the buffered csv.ReadAll reader is the correctness
// oracle the streaming reader is differentially tested against.
var ReadCSVBuffered = readCSVBuffered

// SharesTail reports whether two columns are versions cut from one
// append tail, so that an append wrote one in place after the other.
func SharesTail(a, b *Column) bool { return a.tail != nil && a.tail == b.tail }

// Arrays returns the addresses of the arrays c's values are in, so a
// test can tell an append that wrote in place from one that copied.
func Arrays(c *Column) []unsafe.Pointer {
	switch c.Type {
	case Int:
		return []unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(c.Ints))}
	case Float:
		return []unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(c.Floats))}
	default:
		return []unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(c.Codes)), unsafe.Pointer(unsafe.SliceData(c.Strings))}
	}
}

// MemBytesWalk is Column.MemBytes summed row by row and value by value,
// the oracle for the byte totals constructors and appends keep.
func MemBytesWalk(c *Column) int64 {
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
