package colstore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"path/filepath"

	"adc/internal/dataset"
	"adc/internal/pli"
	"adc/internal/storefs"
)

// enc builds one section payload. All layout decisions live in the
// append methods so the reader can mirror them exactly.
type enc struct {
	b []byte
}

func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// str appends a length-prefixed string padded so the next append is
// 8-byte aligned (the prefix is a u32, so it writes a second u32 of
// zero first to keep the count aligned too).
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.u32(0)
	e.b = append(e.b, s...)
	e.pad8()
}

func (e *enc) pad8() {
	for len(e.b)%8 != 0 {
		e.b = append(e.b, 0)
	}
}

func (e *enc) int64s(v []int64) {
	for _, x := range v {
		e.u64(uint64(x))
	}
}

func (e *enc) float64s(v []float64) {
	for _, x := range v {
		e.u64(math.Float64bits(x))
	}
}

func (e *enc) int32s(v []int32) {
	for _, x := range v {
		e.u32(uint32(x))
	}
	e.pad8()
}

// writeSection frames one payload: header (kind, reserved, length,
// FNV-64a checksum), payload, zero padding to an 8-byte boundary.
func writeSection(w io.Writer, kind uint32, payload []byte) error {
	h := fnv.New64a()
	h.Write(payload) //nolint:errcheck // hash.Hash never errors
	var hdr [sectionHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], kind)
	binary.LittleEndian.PutUint32(hdr[4:], 0)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(hdr[16:], h.Sum64())
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	if pad := (8 - len(payload)%8) % 8; pad > 0 {
		var zero [8]byte
		if _, err := w.Write(zero[:pad]); err != nil {
			return err
		}
	}
	return nil
}

// Write serializes the snapshot to w in format Version. The relation
// is required; Indexes, when non-nil, must be positional over the
// relation's columns.
func Write(w io.Writer, snap *Snapshot) error {
	rel := snap.Relation
	if rel == nil {
		return fmt.Errorf("colstore: nil relation")
	}
	if snap.Indexes != nil && len(snap.Indexes) != rel.NumColumns() {
		return fmt.Errorf("colstore: %d indexes over %d columns", len(snap.Indexes), rel.NumColumns())
	}
	bw := bufio.NewWriter(w)
	var hdr [fileHeaderLen]byte
	copy(hdr[:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:], Version)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}

	var e enc
	e.u64(uint64(rel.NumRows()))
	e.u32(uint32(rel.NumColumns()))
	e.u32(0)
	e.str(rel.Name)
	if err := writeSection(bw, secRelation, e.b); err != nil {
		return err
	}

	metaJSON, err := json.Marshal(snap.Meta)
	if err != nil {
		return err
	}
	if err := writeSection(bw, secMeta, metaJSON); err != nil {
		return err
	}

	for j, c := range rel.Columns {
		payload, err := encodeColumn(j, c)
		if err != nil {
			return err
		}
		if err := writeSection(bw, secColumn, payload); err != nil {
			return err
		}
	}
	for j, idx := range snap.Indexes {
		if idx == nil {
			continue
		}
		payload, err := encodePLI(j, idx, rel.NumRows())
		if err != nil {
			return err
		}
		if err := writeSection(bw, secPLI, payload); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// encodeColumn lays out one column: position, type, row count, name,
// then the typed data. Numeric data is raw 8-byte words; a string
// column is the interned flag, the dictionary size, per-row codes, the
// dictionary offsets, and the value arena.
func encodeColumn(j int, c *dataset.Column) ([]byte, error) {
	var e enc
	e.u32(uint32(j))
	e.u32(uint32(c.Type))
	e.u64(uint64(c.Len()))
	e.str(c.Name)
	switch c.Type {
	case dataset.Int:
		e.int64s(c.Ints)
	case dataset.Float:
		e.float64s(c.Floats)
	case dataset.String:
		values, interned, err := c.DictSnapshot()
		if err != nil {
			return nil, fmt.Errorf("colstore: %w", err)
		}
		flag := uint32(0)
		if interned {
			flag = 1
		}
		e.u32(flag)
		e.u32(uint32(len(values)))
		e.int32s(c.Codes)
		var off uint64
		for _, v := range values {
			e.u64(off)
			off += uint64(len(v))
		}
		e.u64(off)
		for _, v := range values {
			e.b = append(e.b, v...)
		}
	default:
		return nil, fmt.Errorf("colstore: column %q has unknown type %v", c.Name, c.Type)
	}
	return e.b, nil
}

// encodePLI lays out one column's index: position, numeric flag, row
// and cluster counts, the code→cluster map's kind and length (always
// 0: a string index's cluster IDs are its column's codes; earlier
// builds wrote an identity map, which Decode still accepts), then
// ClusterOf and the numeric keys. Cluster membership lists are implied:
// every builder and the copy-on-write extender list a cluster's rows
// in ascending order, so the reader reconstructs Clusters with a
// counting sort over ClusterOf.
func encodePLI(j int, idx *pli.Index, rows int) ([]byte, error) {
	if len(idx.ClusterOf) != rows {
		return nil, fmt.Errorf("colstore: index %d covers %d rows, relation has %d", j, len(idx.ClusterOf), rows)
	}
	if idx.Numeric && len(idx.NumKeys) != idx.NumClusters {
		return nil, fmt.Errorf("colstore: index %d has %d numeric keys for %d clusters", j, len(idx.NumKeys), idx.NumClusters)
	}
	if idx.NumClusters > rows {
		return nil, fmt.Errorf("colstore: index %d has %d clusters over %d rows", j, idx.NumClusters, rows)
	}
	var e enc
	e.u32(uint32(j))
	flag := uint32(0)
	if idx.Numeric {
		flag = 1
	}
	e.u32(flag)
	e.u64(uint64(rows))
	e.u64(uint64(idx.NumClusters))
	e.u32(0) // code-map kind
	e.u32(0) // code-map entries
	e.int32s(idx.ClusterOf)
	if idx.Numeric {
		e.float64s(idx.NumKeys)
	}
	return e.b, nil
}

// WriteFile atomically writes the snapshot to path via WriteFileFS
// over the real filesystem.
func WriteFile(path string, snap *Snapshot) error {
	return WriteFileFS(storefs.Std, path, snap)
}

// WriteFileFS atomically writes the snapshot to path through fsys (nil
// means the real filesystem): the bytes land in a temp file in the
// same directory, are fsynced, and are renamed into place, so a crash
// mid-write can never leave a torn snapshot under the final name
// (dcserved's crash-safety rests on this). The parent directory is
// fsynced after the rename — without that, the rename lives only in
// the directory's page cache and power loss can resurrect the old
// snapshot, or no snapshot at all.
func WriteFileFS(fsys storefs.FS, path string, snap *Snapshot) error {
	if fsys == nil {
		fsys = storefs.Std
	}
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, ".colstore-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer fsys.Remove(tmp) //nolint:errcheck // no-op after the rename
	if err := Write(f, snap); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Chmod(tmp, 0o644); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}
