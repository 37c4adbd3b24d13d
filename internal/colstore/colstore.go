// Package colstore is the persistent columnar storage tier: it
// serializes a dataset.Relation (per-column dictionary codes, string
// arenas, and numeric columns) together with its built pli indexes
// into a versioned, section-based snapshot file, and reads it back
// with one decoder that views the large arrays (numeric values,
// dictionary codes, string arenas, cluster maps) in the bytes it is
// given instead of copying them: Load hands it the file read into a
// heap buffer, Attach a read-only mapping of the file, so re-attaching
// a session costs page faults instead of CSV parsing and index builds.
//
// # File format (version 1)
//
// All integers are little-endian. The file starts with an 8-byte
// header — the magic "ADCS" followed by a uint32 version — and then a
// sequence of sections, each:
//
//	kind     uint32   section type (relation | meta | column | pli)
//	reserved uint32   must be zero
//	length   uint64   payload bytes
//	checksum uint64   FNV-64a of the payload
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
// Corruption surfaces as typed errors: ErrCorrupt for truncation, bad
// magic, checksum mismatches, and structural inconsistencies;
// ErrVersion for a well-formed header with an unsupported version.
// Decoding validates every length against the actual payload before
// allocating, so a corrupt or adversarial file cannot trigger
// oversized allocations or panics (FuzzSnapshotDecode enforces this).
package colstore

import (
	"errors"

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
	// Version is the format version this package writes and reads.
	Version = 1
)

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
