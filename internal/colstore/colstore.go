// Package colstore is the persistent columnar storage tier: it
// serializes a dataset.Relation (per-column dictionary codes, string
// arenas, and numeric columns) together with its built pli indexes
// into a versioned, section-based snapshot file, and reads it back
// with one decoder that views the large arrays (numeric values,
// dictionary codes, string arenas, cluster maps) in the bytes it is
// given instead of copying them: Load hands it the file read into a
// heap buffer, Attach a read-only mapping of the file, so re-attaching
// a session costs page faults instead of CSV parsing and index builds.
// AttachWithRoom, for a relation about to be appended to, instead
// copies the column values and codes once into arrays with room for
// the appended rows.
//
// # File format (version 2)
//
// All integers are little-endian. The file starts with an 8-byte
// header — the magic "ADCS" followed by a uint32 version — and then a
// sequence of sections, each:
//
//	kind     uint32   section type (relation | meta | column | pli)
//	reserved uint32   must be zero
//	length   uint64   payload bytes
//	checksum uint64   CRC-32C (Castagnoli) of the payload in the high
//	                  32 bits, CRC-32 (IEEE) in the low 32 bits
//	payload  [length]byte, zero-padded to an 8-byte boundary
//
// Section payloads therefore always start 8-byte aligned, which is
// what lets the attach path view numeric columns as []int64/[]float64
// without copying. The relation section must come first; every column
// then gets one column section (in column order: name, type, and the
// typed data — raw int64/float64 words, or dictionary codes plus an
// offset-indexed string arena), and each built PLI gets a pli section
// (ClusterOf and numeric keys; a string index's cluster IDs are its
// column's dictionary codes, so the code→cluster map the format leaves
// room for is written empty and accepted only as the identity; the
// per-cluster membership lists are not stored — rows within a cluster
// are always ascending, so a counting sort over ClusterOf reconstructs
// them exactly). The meta section is a small JSON blob of session metadata
// (name, golden DCs, append count) for dcserved's registry.
//
// A version-2 checksum's two CRCs run in hardware on amd64 and arm64
// (hash/crc32), at memory speed rather than FNV's byte-at-a-time
// multiply, and together still give a 64-bit check. Version 1 is the same layout with an FNV-64a
// checksum; this package still reads it (every read path checks a
// section through sectionSum of the file's version), so data
// directories written by earlier builds restore, but writes only
// version 2. A build that reads only version 1 refuses a version-2
// file with ErrVersion rather than misreading its checksums.
//
// Corruption surfaces as typed errors: ErrCorrupt for truncation, bad
// magic, checksum mismatches, and structural inconsistencies;
// ErrVersion for a well-formed header with an unsupported version.
// Decoding validates every length against the actual payload before
// allocating, so a corrupt or adversarial file cannot trigger
// oversized allocations or panics (FuzzSnapshotDecode enforces this).
package colstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"

	"adc/internal/dataset"
	"adc/internal/pli"
)

// Typed error classes. Specific failures wrap these, so callers test
// with errors.Is and still get the detail in the message.
var (
	// ErrCorrupt marks a snapshot that is structurally broken:
	// truncated, bad magic, checksum mismatch, or inconsistent
	// section contents.
	ErrCorrupt = errors.New("colstore: corrupt snapshot")
	// ErrVersion marks a structurally sound snapshot written by an
	// unsupported format version.
	ErrVersion = errors.New("colstore: unsupported snapshot version")
)

// Format constants.
const (
	// Magic is the 4-byte file signature.
	Magic = "ADCS"
	// Version is the format version this package writes. It also
	// reads version 1, whose sections carry FNV-64a checksums.
	Version = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sectionSum is the checksum a file of the given version carries for a
// section payload: FNV-64a in version 1; in version 2, CRC-32C in the
// high half and CRC-32 (IEEE) in the low half.
func sectionSum(version uint32, payload []byte) uint64 {
	if version == 1 {
		h := fnv.New64a()
		h.Write(payload) //nolint:errcheck // hash.Hash never errors
		return h.Sum64()
	}
	return uint64(crc32.Checksum(payload, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(payload))
}

// fileVersion checks a file header's magic and returns its format
// version: ErrCorrupt for bad magic, ErrVersion for a version this
// build does not read.
func fileVersion(hdr []byte) (uint32, error) {
	if string(hdr[:4]) != Magic {
		return 0, corruptf("bad magic %q", hdr[:4])
	}
	v := binary.LittleEndian.Uint32(hdr[4:8])
	if v != 1 && v != Version {
		return 0, fmt.Errorf("%w: snapshot version %d, this build reads 1 and %d", ErrVersion, v, Version)
	}
	return v, nil
}

// Section kinds.
const (
	secRelation = 1 // relation header: rows, column count, name
	secMeta     = 2 // JSON session metadata (Meta)
	secColumn   = 3 // one column's name, type, and data
	secPLI      = 4 // one column's position list index
)

const (
	fileHeaderLen    = 8  // magic + version
	sectionHeaderLen = 24 // kind + reserved + length + checksum
)

// Meta is the session metadata carried alongside the relation —
// everything dcserved needs to restore a registry entry that the
// relation itself does not record.
type Meta struct {
	// Name is the session's display name (may differ from the
	// relation name).
	Name string `json:"name,omitempty"`
	// Golden carries the golden DCs of a generated dataset.
	Golden []string `json:"golden,omitempty"`
	// Appends is the session's append counter.
	Appends int64 `json:"appends,omitempty"`
	// Created is the session creation time in RFC 3339 form.
	Created string `json:"created,omitempty"`
}

// Snapshot is the unit of persistence: a relation, its built
// per-column indexes (positional, nil for unbuilt columns, may be nil
// altogether), and session metadata.
type Snapshot struct {
	Relation *dataset.Relation
	Indexes  []*pli.Index
	Meta     Meta

	// close releases the mmap of an attached snapshot; nil for
	// decoded snapshots.
	close func() error
}

// Close releases the file mapping of an mmap-attached snapshot. After
// Close, every structure that aliases the mapping — numeric columns,
// dictionary codes and strings, ClusterOf arrays — is invalid, so the
// caller must guarantee nothing still references the relation or the
// indexes. Snapshots produced by Load or Decode hold no mapping and
// Close is a no-op. Long-lived callers that cannot prove the relation
// is dead (dcserved's restore path) simply never call Close: a clean
// read-only mapping costs address space, not memory — the OS reclaims
// its pages under pressure.
func (s *Snapshot) Close() error {
	if s.close == nil {
		return nil
	}
	err := s.close()
	s.close = nil
	return err
}
