package colstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"unsafe"

	"adc/internal/dataset"
	"adc/internal/pli"
)

// corruptf wraps ErrCorrupt with detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Load reads the snapshot at path into one heap buffer and decodes it
// there (Decode); the result is independent of the file.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// dec is a bounds-checked payload reader. Every read validates against
// the remaining payload before touching it, so corrupt length fields
// fail with ErrCorrupt instead of panicking or over-allocating.
type dec struct {
	b   []byte
	off int
}

func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) take(n int) ([]byte, error) {
	if n < 0 || d.remaining() < n {
		return nil, corruptf("section payload truncated: need %d bytes, have %d", n, d.remaining())
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *dec) u32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *dec) u64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// str mirrors enc.str: u32 length, u32 zero, bytes, pad to 8.
func (d *dec) str() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	if _, err := d.u32(); err != nil {
		return "", err
	}
	b, err := d.take(int(n))
	if err != nil {
		return "", err
	}
	if err := d.pad8(); err != nil {
		return "", err
	}
	return string(b), nil
}

func (d *dec) pad8() error {
	if rem := d.off % 8; rem != 0 {
		_, err := d.take(8 - rem)
		return err
	}
	return nil
}

// count validates an element count carried in the payload against the
// bytes actually present, before any allocation sized by it.
func (d *dec) count(n uint64, elemBytes int) (int, error) {
	if n > uint64(d.remaining())/uint64(elemBytes) {
		return 0, corruptf("count %d exceeds payload (%d bytes left, %d per element)", n, d.remaining(), elemBytes)
	}
	return int(n), nil
}

// int64s reads n 8-byte words as a slice viewing the payload. The
// format keeps arrays 8-byte aligned; a buffer that is not (an
// unaligned sub-slice handed to Decode) is copied instead.
func (d *dec) int64s(n int) ([]int64, error) {
	b, err := d.take(n * 8)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return make([]int64, 0), nil
	}
	if aligned(b, 8) {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

func (d *dec) float64s(n int) ([]float64, error) {
	b, err := d.take(n * 8)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return make([]float64, 0), nil
	}
	if aligned(b, 8) {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

// int32s mirrors enc.int32s: n 4-byte words then pad to 8.
func (d *dec) int32s(n int) ([]int32, error) {
	b, err := d.take(n * 4)
	if err != nil {
		return nil, err
	}
	if err := d.pad8(); err != nil {
		return nil, err
	}
	if n == 0 {
		return make([]int32, 0), nil
	}
	if aligned(b, 4) {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

func aligned(b []byte, n uintptr) bool { return uintptr(unsafe.Pointer(&b[0]))%n == 0 }

// Decode parses a whole snapshot from data, which it views instead of
// copying: numeric columns, dictionary codes and strings, and ClusterOf
// arrays alias data, so data must stay unmodified while the snapshot
// is in use. Load passes a heap buffer and Attach a read-only file
// mapping.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < fileHeaderLen {
		return nil, corruptf("file shorter than the %d-byte header", fileHeaderLen)
	}
	if string(data[:4]) != Magic {
		return nil, corruptf("bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != Version {
		return nil, fmt.Errorf("%w: snapshot version %d, this build reads %d", ErrVersion, v, Version)
	}

	var (
		haveRel  bool
		relName  string
		rows     int
		numCols  int
		cols     []*dataset.Column
		indexes  []*pli.Index
		haveIdx  bool
		meta     Meta
		haveMeta bool
	)

	off := fileHeaderLen
	for off < len(data) {
		if len(data)-off < sectionHeaderLen {
			return nil, corruptf("trailing %d bytes are not a section", len(data)-off)
		}
		kind := binary.LittleEndian.Uint32(data[off:])
		reserved := binary.LittleEndian.Uint32(data[off+4:])
		plen := binary.LittleEndian.Uint64(data[off+8:])
		sum := binary.LittleEndian.Uint64(data[off+16:])
		if reserved != 0 {
			return nil, corruptf("section at %d has nonzero reserved field", off)
		}
		if plen > uint64(len(data)-off-sectionHeaderLen) {
			return nil, corruptf("section at %d claims %d payload bytes, %d remain", off, plen, len(data)-off-sectionHeaderLen)
		}
		payload := data[off+sectionHeaderLen : off+sectionHeaderLen+int(plen)]
		h := fnv.New64a()
		h.Write(payload) //nolint:errcheck // hash.Hash never errors
		if h.Sum64() != sum {
			return nil, corruptf("section at %d fails its checksum", off)
		}
		padded := (int(plen) + 7) &^ 7
		if padded > len(data)-off-sectionHeaderLen {
			return nil, corruptf("section at %d is missing its padding", off)
		}
		off += sectionHeaderLen + padded

		if kind != secRelation && !haveRel {
			return nil, corruptf("section kind %d before the relation header", kind)
		}
		switch kind {
		case secRelation:
			if haveRel {
				return nil, corruptf("duplicate relation header")
			}
			d := &dec{b: payload}
			r, err := d.u64()
			if err != nil {
				return nil, err
			}
			nc, err := d.u32()
			if err != nil {
				return nil, err
			}
			if _, err := d.u32(); err != nil {
				return nil, err
			}
			name, err := d.str()
			if err != nil {
				return nil, err
			}
			if r > math.MaxInt32 {
				return nil, corruptf("relation claims %d rows", r)
			}
			if nc == 0 || nc > 1<<20 {
				return nil, corruptf("relation claims %d columns", nc)
			}
			haveRel, relName, rows, numCols = true, name, int(r), int(nc)
			cols = make([]*dataset.Column, numCols)
			indexes = make([]*pli.Index, numCols)
		case secMeta:
			if haveMeta {
				return nil, corruptf("duplicate meta section")
			}
			if err := json.Unmarshal(payload, &meta); err != nil {
				return nil, corruptf("meta section is not valid JSON: %v", err)
			}
			haveMeta = true
		case secColumn:
			j, c, err := decodeColumn(payload, rows)
			if err != nil {
				return nil, err
			}
			if j >= numCols {
				return nil, corruptf("column section for column %d of %d", j, numCols)
			}
			if cols[j] != nil {
				return nil, corruptf("duplicate section for column %d", j)
			}
			cols[j] = c
		case secPLI:
			j, idx, err := decodePLI(payload, rows)
			if err != nil {
				return nil, err
			}
			if j >= numCols {
				return nil, corruptf("pli section for column %d of %d", j, numCols)
			}
			if indexes[j] != nil {
				return nil, corruptf("duplicate pli section for column %d", j)
			}
			indexes[j] = idx
			haveIdx = true
		default:
			return nil, corruptf("unknown section kind %d", kind)
		}
	}

	if !haveRel {
		return nil, corruptf("no relation header")
	}
	for j, c := range cols {
		if c == nil {
			return nil, corruptf("column %d has no section", j)
		}
	}
	rel, err := dataset.NewRelation(relName, cols)
	if err != nil {
		return nil, corruptf("%v", err)
	}
	snap := &Snapshot{Relation: rel, Meta: meta}
	if haveIdx {
		snap.Indexes = indexes
	}
	return snap, nil
}

// decodeColumn mirrors encodeColumn.
func decodeColumn(payload []byte, rows int) (int, *dataset.Column, error) {
	d := &dec{b: payload}
	j, err := d.u32()
	if err != nil {
		return 0, nil, err
	}
	typ, err := d.u32()
	if err != nil {
		return 0, nil, err
	}
	r, err := d.u64()
	if err != nil {
		return 0, nil, err
	}
	if r != uint64(rows) {
		return 0, nil, corruptf("column %d has %d rows, relation header says %d", j, r, rows)
	}
	name, err := d.str()
	if err != nil {
		return 0, nil, err
	}
	switch dataset.Type(typ) {
	case dataset.Int:
		v, err := d.int64s(rows)
		if err != nil {
			return 0, nil, err
		}
		if d.remaining() != 0 {
			return 0, nil, corruptf("column %q has %d trailing bytes", name, d.remaining())
		}
		return int(j), dataset.NewIntColumn(name, v), nil
	case dataset.Float:
		v, err := d.float64s(rows)
		if err != nil {
			return 0, nil, err
		}
		if d.remaining() != 0 {
			return 0, nil, corruptf("column %q has %d trailing bytes", name, d.remaining())
		}
		return int(j), dataset.NewFloatColumn(name, v), nil
	case dataset.String:
		internedFlag, err := d.u32()
		if err != nil {
			return 0, nil, err
		}
		if internedFlag > 1 {
			return 0, nil, corruptf("column %q has interned flag %d", name, internedFlag)
		}
		dictLen64, err := d.u32()
		if err != nil {
			return 0, nil, err
		}
		codes, err := d.int32s(rows)
		if err != nil {
			return 0, nil, err
		}
		dictLen, err := d.count(uint64(dictLen64)+1, 8)
		if err != nil {
			return 0, nil, err
		}
		dictLen-- // offsets carry one extra terminal entry
		offs := make([]uint64, dictLen+1)
		for i := range offs {
			offs[i], err = d.u64()
			if err != nil {
				return 0, nil, err
			}
		}
		arena, err := d.take(d.remaining())
		if err != nil {
			return 0, nil, err
		}
		if offs[0] != 0 || offs[dictLen] != uint64(len(arena)) {
			return 0, nil, corruptf("column %q dictionary offsets do not span the arena", name)
		}
		values := make([]string, dictLen)
		for i := 0; i < dictLen; i++ {
			lo, hi := offs[i], offs[i+1]
			if lo > hi || hi > uint64(len(arena)) {
				return 0, nil, corruptf("column %q dictionary offsets are not monotone", name)
			}
			values[i] = bstr(arena[lo:hi])
		}
		c, err := dataset.RestoreStringColumn(name, values, codes, internedFlag == 1)
		if err != nil {
			return 0, nil, corruptf("%v", err)
		}
		return int(j), c, nil
	}
	return 0, nil, corruptf("column %q has unknown type %d", name, typ)
}

// bstr views bytes as a string without copying; Decode's buffer must
// not change while the snapshot is in use.
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// decodePLI mirrors encodePLI, rebuilding the per-cluster membership
// lists with a counting sort over ClusterOf (rows within a cluster are
// ascending in every index this codebase builds, so the reconstruction
// is exact).
func decodePLI(payload []byte, rows int) (int, *pli.Index, error) {
	d := &dec{b: payload}
	j, err := d.u32()
	if err != nil {
		return 0, nil, err
	}
	numericFlag, err := d.u32()
	if err != nil {
		return 0, nil, err
	}
	if numericFlag > 1 {
		return 0, nil, corruptf("pli %d has numeric flag %d", j, numericFlag)
	}
	r, err := d.u64()
	if err != nil {
		return 0, nil, err
	}
	if r != uint64(rows) {
		return 0, nil, corruptf("pli %d covers %d rows, relation header says %d", j, r, rows)
	}
	nClusters64, err := d.u64()
	if err != nil {
		return 0, nil, err
	}
	if nClusters64 > uint64(rows) {
		return 0, nil, corruptf("pli %d claims %d clusters over %d rows", j, nClusters64, rows)
	}
	nClusters := int(nClusters64)
	ccKind, err := d.u32()
	if err != nil {
		return 0, nil, err
	}
	if ccKind > 1 {
		return 0, nil, corruptf("pli %d has code-map kind %d", j, ccKind)
	}
	ccLen64, err := d.u32()
	if err != nil {
		return 0, nil, err
	}
	clusterOf, err := d.int32s(rows)
	if err != nil {
		return 0, nil, err
	}
	idx := &pli.Index{
		ClusterOf:   clusterOf,
		NumClusters: nClusters,
		Numeric:     numericFlag == 1,
	}
	if idx.Numeric {
		idx.NumKeys, err = d.float64s(nClusters)
		if err != nil {
			return 0, nil, err
		}
		if nClusters == 0 {
			idx.NumKeys = nil
		}
	}
	// A code map, written by earlier builds, is accepted only as the
	// identity: cluster IDs are codes.
	if ccKind == 1 {
		ccLen, err := d.count(uint64(ccLen64), 8)
		if err != nil {
			return 0, nil, err
		}
		for i := 0; i < ccLen; i++ {
			k, err := d.u32()
			if err != nil {
				return 0, nil, err
			}
			v, err := d.u32()
			if err != nil {
				return 0, nil, err
			}
			if k != v || v >= uint32(nClusters) {
				return 0, nil, corruptf("pli %d code map sends code %d to cluster %d", j, int32(k), int32(v))
			}
		}
	}
	if d.remaining() != 0 {
		return 0, nil, corruptf("pli %d has %d trailing bytes", j, d.remaining())
	}

	// Reconstruct the membership lists: counts, then one backing array
	// carved per cluster, rows appended in ascending order.
	if nClusters > 0 {
		counts := make([]int32, nClusters)
		for i, id := range clusterOf {
			if id < 0 || int(id) >= nClusters {
				return 0, nil, corruptf("pli %d row %d is in cluster %d of %d", j, i, id, nClusters)
			}
			counts[id]++
		}
		buf := make([]int32, rows)
		starts := make([]int32, nClusters)
		clusters := make([][]int32, nClusters)
		off := int32(0)
		for k, cnt := range counts {
			starts[k] = off
			clusters[k] = buf[off : off+cnt : off+cnt]
			off += cnt
		}
		for i, id := range clusterOf {
			buf[starts[id]] = int32(i)
			starts[id]++
		}
		idx.Clusters = clusters
	}
	return int(j), idx, nil
}
