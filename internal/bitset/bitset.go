// Package bitset provides dense, fixed-width bitsets used throughout the
// miner to represent sets of predicates (both evidence sets and candidate
// DCs). A bitset is a plain []uint64 so that evidence sets can be used as
// map keys via their byte image and copied with the built-in copy.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

// Bits is a dense bitset over a fixed universe. The number of valid bits is
// managed by the caller; trailing bits in the last word must be kept zero by
// all operations in this package (and are, as long as Set is called only
// with indexes below the universe size used in New).
type Bits []uint64

const wordBits = 64

// WordsFor returns the number of 64-bit words needed for n bits.
func WordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// New returns a zeroed bitset capable of holding n bits.
func New(n int) Bits { return make(Bits, WordsFor(n)) }

// Clone returns a copy of b.
func (b Bits) Clone() Bits {
	c := make(Bits, len(b))
	copy(c, b)
	return c
}

// Set sets bit i.
func (b Bits) Set(i int) { b[i/wordBits] |= 1 << uint(i%wordBits) }

// Clear clears bit i.
func (b Bits) Clear(i int) { b[i/wordBits] &^= 1 << uint(i%wordBits) }

// Test reports whether bit i is set.
func (b Bits) Test(i int) bool { return b[i/wordBits]&(1<<uint(i%wordBits)) != 0 }

// Count returns the number of set bits.
func (b Bits) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no bit is set.
func (b Bits) Empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether b and o contain exactly the same bits. The two
// bitsets must come from the same universe (same length).
func (b Bits) Equal(o Bits) bool {
	if len(b) != len(o) {
		return false
	}
	for i, w := range b {
		if w != o[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether b and o share at least one set bit.
func (b Bits) Intersects(o Bits) bool {
	n := len(b)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if b[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectionCount returns |b ∩ o|.
func (b Bits) IntersectionCount(o Bits) int {
	n := len(b)
	if len(o) < n {
		n = len(o)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(b[i] & o[i])
	}
	return c
}

// ContainsAll reports whether every bit of o is also set in b.
func (b Bits) ContainsAll(o Bits) bool {
	for i, w := range o {
		if w&^b[i] != 0 {
			return false
		}
	}
	return true
}

// Or sets b to b ∪ o in place.
func (b Bits) Or(o Bits) {
	for i, w := range o {
		b[i] |= w
	}
}

// OrInto writes b ∪ o into dst, which must have at least len(b) words
// (extra words are left untouched) while o may be shorter than b. It is
// the allocation-free fused copy+Or of the evidence delta's pair
// evaluation: dst is the reused evidence buffer, b the per-row base
// mask, o the first cross group's operator mask.
func (b Bits) OrInto(o, dst Bits) {
	n := len(o)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		dst[i] = b[i] | o[i]
	}
	copy(dst[n:], b[n:])
}

// And sets b to b ∩ o in place.
func (b Bits) And(o Bits) {
	for i := range b {
		if i < len(o) {
			b[i] &= o[i]
		} else {
			b[i] = 0
		}
	}
}

// AndNot sets b to b \ o in place.
func (b Bits) AndNot(o Bits) {
	n := len(b)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		b[i] &^= o[i]
	}
}

// Reset clears all bits.
func (b Bits) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// ForEach calls fn for every set bit, in increasing order.
func (b Bits) ForEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(wi*wordBits + tz)
			w &= w - 1
		}
	}
}

// Slice returns the indexes of all set bits in increasing order.
func (b Bits) Slice() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) { out = append(out, i) })
	return out
}

// FirstCommon returns the lowest index set in both b and o, or -1 if the
// intersection is empty.
func (b Bits) FirstCommon(o Bits) int {
	n := len(b)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if v := b[i] & o[i]; v != 0 {
			return i*wordBits + bits.TrailingZeros64(v)
		}
	}
	return -1
}

// FNV-1a parameters, widened to the word level: instead of hashing the
// 8·len(b) bytes of the image one byte at a time, whole 64-bit words are
// folded in per multiply. Collision behavior on evidence-set workloads
// is indistinguishable from byte-wise FNV while doing 1/8 of the work.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash returns a 64-bit hash of the bitset's words (word-level FNV-1a).
// Equal bitsets from the same universe hash equally; it is the hash
// function of the evidence intern table and of HashWords.
func (b Bits) Hash() uint64 { return HashWords(b) }

// HashWords hashes a raw word slice the same way Bits.Hash does, for
// callers holding arena-backed []uint64 views rather than Bits values.
func HashWords(ws []uint64) uint64 {
	h := uint64(fnvOffset)
	for _, w := range ws {
		h ^= w
		h *= fnvPrime
	}
	// Finalize with a murmur-style mixer: sparse bitsets differ in few
	// input bits, and plain FNV leaves their influence concentrated in
	// the high half, while open-addressing tables index with the low
	// bits. The two multiply/shift rounds avalanche every input bit.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Key returns a string image of the bitset suitable for use as a map key.
// Two bitsets from the same universe have equal keys iff they are Equal.
func (b Bits) Key() string {
	var sb []byte
	for _, w := range b {
		for s := 0; s < 64; s += 8 {
			sb = append(sb, byte(w>>uint(s)))
		}
	}
	return string(sb)
}

// FromKey reconstructs a bitset from a Key image.
func FromKey(k string) Bits {
	b := make(Bits, len(k)/8)
	for i := range b {
		var w uint64
		for s := 0; s < 8; s++ {
			w |= uint64(k[i*8+s]) << uint(8*s)
		}
		b[i] = w
	}
	return b
}

// FromSlice builds a bitset over a universe of n bits with the given
// indexes set.
func FromSlice(n int, idx []int) Bits {
	b := New(n)
	for _, i := range idx {
		b.Set(i)
	}
	return b
}

// String renders the set bits as "{1, 5, 9}", for debugging and tests.
func (b Bits) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.ForEach(func(i int) {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		sb.WriteString(strconv.Itoa(i))
	})
	sb.WriteByte('}')
	return sb.String()
}
