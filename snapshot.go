package adc

import (
	"adc/internal/colstore"
	"adc/internal/pli"
	"adc/internal/violation"
)

// Snapshot persistence: the top-level face of internal/colstore. A
// snapshot file captures a relation together with whatever per-column
// PLI indexes have been built, so a later process skips both CSV
// ingestion and index construction. See internal/colstore for the
// format.

// SnapshotErrCorrupt and SnapshotErrVersion classify snapshot read
// failures: structural corruption (truncation, bad magic, checksum
// mismatch) versus a version this build does not read. Test with
// errors.Is.
var (
	SnapshotErrCorrupt = colstore.ErrCorrupt
	SnapshotErrVersion = colstore.ErrVersion
)

// NewCheckerWithStore creates a Checker that adopts an existing index
// store instead of starting cold — pair it with LoadSnapshot or
// AttachSnapshot to serve violation checks without rebuilding a single
// index. The store must cover exactly the relation's columns.
var NewCheckerWithStore = violation.NewCheckerWithStore

// SaveSnapshot writes the relation and the indexes built so far in idx
// (nil saves the relation alone) to a snapshot file at path. The write
// is atomic: a crash mid-write never leaves a torn file under path.
func SaveSnapshot(path string, rel *Relation, idx *IndexStore) error {
	snap := &colstore.Snapshot{Relation: rel, Meta: colstore.Meta{Name: rel.Name}}
	if idx != nil {
		snap.Indexes = idx.Snapshot()
	}
	return colstore.WriteFile(path, snap)
}

// LoadSnapshot reads the snapshot at path into memory and decodes it:
// the relation, and an index store pre-populated with every index the
// snapshot carries (remaining columns index lazily as usual). Their
// large arrays view one heap buffer holding the file, which stays
// allocated while any of them is referenced.
func LoadSnapshot(path string) (*Relation, *IndexStore, error) {
	snap, err := colstore.Load(path)
	if err != nil {
		return nil, nil, err
	}
	store, err := pli.RestoreStore(snap.Relation.Columns, snap.Indexes)
	if err != nil {
		return nil, nil, err
	}
	return snap.Relation, store, nil
}

// AttachSnapshot opens the snapshot at path with its large arrays
// aliased onto a read-only file mapping — column values, dictionary
// arenas, and cluster maps are paged in on first touch instead of
// materialized up front. The mapping stays open for the life of the
// process (it is read-only and clean, so the OS reclaims its pages
// under memory pressure); use LoadSnapshot when that is not acceptable.
func AttachSnapshot(path string) (*Relation, *IndexStore, error) {
	snap, err := colstore.Attach(path)
	if err != nil {
		return nil, nil, err
	}
	store, err := pli.RestoreStore(snap.Relation.Columns, snap.Indexes)
	if err != nil {
		snap.Close() //nolint:errcheck // the restore error wins
		return nil, nil, err
	}
	return snap.Relation, store, nil
}
