package server

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"adc/internal/colstore"
	"adc/internal/datagen"
	"adc/internal/dataset"
	"adc/internal/storefs"
	"adc/internal/wal"
)

// liveRelation returns the relation a session serves.
func liveRelation(t testing.TB, srv *Server, id string) *dataset.Relation {
	t.Helper()
	sess := srv.reg.get(id)
	if sess == nil {
		t.Fatalf("session %s not found", id)
	}
	defer sess.release()
	checker, _ := sess.state()
	return checker.Relation()
}

// relationDiff describes the first difference between two relations
// in what colstore.Write's bytes hold of them (values with floats by
// their bits, codes, dictionary order, interned flag), in their
// per-row strings or in MemBytes; "" if there is none.
func relationDiff(got, want *dataset.Relation) string {
	var gb, wb bytes.Buffer
	if err := colstore.Write(&gb, &colstore.Snapshot{Relation: got}); err != nil {
		return err.Error()
	}
	if err := colstore.Write(&wb, &colstore.Snapshot{Relation: want}); err != nil {
		return err.Error()
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		return "colstore.Write makes different bytes"
	}
	for j, w := range want.Columns {
		if g := got.Columns[j]; !slices.Equal(g.Strings, w.Strings) || g.MemBytes() != w.MemBytes() {
			return fmt.Sprintf("column %q: per-row strings or MemBytes differ", w.Name)
		}
	}
	return ""
}

// arrays returns the addresses of the arrays c's values are in.
func arrays(c *dataset.Column) []unsafe.Pointer {
	switch c.Type {
	case dataset.Int:
		return []unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(c.Ints))}
	case dataset.Float:
		return []unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(c.Floats))}
	default:
		return []unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(c.Codes)), unsafe.Pointer(unsafe.SliceData(c.Strings))}
	}
}

// mapping returns the address ranges at which this process maps the
// file at path, read from /proc/self/maps; it skips the test where
// there is no such file or no such mapping (no mmap on the platform).
func mapping(t *testing.T, path string) [][2]uintptr {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skip("no /proc/self/maps on this platform")
	}
	if path, err = filepath.EvalSymlinks(path); err != nil {
		t.Fatal(err)
	}
	var ranges [][2]uintptr
	for _, line := range strings.Split(string(maps), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || f[5] != path {
			continue
		}
		lo, hi, _ := strings.Cut(f[0], "-")
		a, err1 := strconv.ParseUint(lo, 16, 64)
		b, err2 := strconv.ParseUint(hi, 16, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unreadable mapping %q", line)
		}
		ranges = append(ranges, [2]uintptr{uintptr(a), uintptr(b)})
	}
	if len(ranges) == 0 {
		t.Skip("the snapshot is not mapped on this platform")
	}
	return ranges
}

// mapped reports whether p lies in one of the ranges.
func mapped(p unsafe.Pointer, ranges [][2]uintptr) bool {
	for _, r := range ranges {
		if uintptr(p) >= r[0] && uintptr(p) < r[1] {
			return true
		}
	}
	return false
}

// taxCSV generates tax at the given rows as CSV.
func taxCSV(t *testing.T, rows int) (string, *dataset.Relation) {
	t.Helper()
	ds, err := datagen.ByName("tax", rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := ds.Rel.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return csv.String(), ds.Rel
}

// TestRestoreReplaysInPlace restores a session whose 32 appended
// batches, one of them with a value new to every column, sit in its
// log. The restored relation must equal the one the crashed server
// served (relationDiff). The replay must have written in place into
// the arrays of the attached relation's columns, which own them
// instead of viewing the mapping (the dictionary strings and the
// indexes still view it), and the snapshot file must not change.
func TestRestoreReplaysInPlace(t *testing.T) {
	dir := t.TempDir()
	srv, ts := testServer(t, Config{DataDir: dir, WALNoSync: true})
	c := ts.Client()
	csv, rel := taxCSV(t, 300)
	id := ingestCSV(t, c, ts.URL, csv)
	for k := 0; k < 32; k++ {
		rows := make([][]string, 4)
		for r := range rows {
			rows[r] = make([]string, rel.NumColumns())
			for j, col := range rel.Columns {
				rows[r][j] = col.ValueString((k*4 + r) * 37 % rel.NumRows())
				if k == 5 && r == 0 {
					rows[r][j] = "900001"
				}
			}
		}
		appendRows(t, c, ts.URL, id, rows)
	}
	live := liveRelation(t, srv, id)
	snapPath := filepath.Join(dir, id+".adcs")
	before, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	ts.Close() // crash: the log holds every batch

	srv2, _ := testServer(t, Config{DataDir: dir, WALNoSync: true})
	sess := srv2.reg.get(id)
	checker, _ := sess.state()
	restored, attached := checker.Relation(), sess.snap.Relation
	sess.release()
	if diff := relationDiff(restored, live); diff != "" {
		t.Fatalf("restored relation: %s", diff)
	}
	for j, col := range restored.Columns {
		if !slices.Equal(arrays(col), arrays(attached.Columns[j])) {
			t.Errorf("column %q: the replay copied the column", col.Name)
		}
	}
	ranges := mapping(t, snapPath)
	for _, col := range restored.Columns {
		for _, p := range arrays(col) {
			if mapped(p, ranges) {
				t.Errorf("column %q still views the mapping after the replay", col.Name)
			}
		}
	}
	after, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("the restore changed the snapshot file")
	}
}

// TestRestoreWithoutLogViewsMapping pins that a restore with an empty
// log still attaches its snapshot without copying: the mapping is
// counted, and the numeric values and dictionary codes lie in it.
func TestRestoreWithoutLogViewsMapping(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServer(t, Config{DataDir: dir})
	csv, _ := taxCSV(t, 200)
	id := ingestCSV(t, ts.Client(), ts.URL, csv)
	ts.Close()

	base := colstore.OpenAttachments()
	srv2, _ := testServer(t, Config{DataDir: dir})
	restored := liveRelation(t, srv2, id)
	ranges := mapping(t, filepath.Join(dir, id+".adcs"))
	if got := colstore.OpenAttachments(); got != base+1 {
		t.Errorf("OpenAttachments = %d after the restore, want %d", got, base+1)
	}
	for _, col := range restored.Columns {
		if p := arrays(col)[0]; !mapped(p, ranges) {
			t.Errorf("column %q does not view the mapping", col.Name)
		}
	}
}

// countingFS counts the files opened through it that are still open.
type countingFS struct {
	storefs.FS
	open atomic.Int64
}

func (f *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (storefs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	f.open.Add(1)
	return &countedFile{File: file, fs: f}, nil
}

type countedFile struct {
	storefs.File
	fs     *countingFS
	closed bool
}

func (c *countedFile) Close() error {
	if !c.closed {
		c.closed = true
		c.fs.open.Add(-1)
	}
	return c.File.Close()
}

// TestRestoreCorruptSnapshotClosesLog restores a session whose
// snapshot lost its last bytes (its header and metadata, which the
// startup scan reads, are intact) next to a valid log. The restore
// opens the log first, so it must fail without leaving the log open or
// changing it; once the snapshot is whole again, the session restores
// with every logged batch.
func TestRestoreCorruptSnapshotClosesLog(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServer(t, Config{DataDir: dir})
	c := ts.Client()
	id := ingestCSV(t, c, ts.URL, dirtyCSV)
	appendRows(t, c, ts.URL, id, [][]string{{"10001", "TX", "90"}})
	appendRows(t, c, ts.URL, id, [][]string{{"90210", "NV", "91"}, {"60601", "IL", "92"}})
	ts.Close()

	snapPath, walPath := filepath.Join(dir, id+".adcs"), filepath.Join(dir, id+".adcw")
	good, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, good[:len(good)-8], 0o644); err != nil {
		t.Fatal(err)
	}

	fsys := &countingFS{FS: storefs.Std}
	srv2, ts2 := testServer(t, Config{DataDir: dir, FS: fsys})
	if sess := srv2.reg.get(id); sess != nil {
		t.Fatal("a truncated snapshot restored")
	}
	if n := fsys.open.Load(); n != 0 {
		t.Fatalf("%d files left open by the failed restore", n)
	}
	if got, err := os.ReadFile(walPath); err != nil || !bytes.Equal(got, log) {
		t.Fatalf("the failed restore changed the log (%v)", err)
	}

	if err := os.WriteFile(snapPath, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := len(liveRelation(t, srv2, id).Columns[0].Ints); got != 8 {
		t.Errorf("restored %d rows, want 8 (5 ingested + 3 logged)", got)
	}
	if n := fsys.open.Load(); n != 1 {
		t.Errorf("%d files open after the restore, want its log", n)
	}
	if st := storageMetrics(t, ts2.Client(), ts2.URL); st["wal_replayed_batches"].(float64) != 2 {
		t.Errorf("wal_replayed_batches = %v, want 2", st["wal_replayed_batches"])
	}
}

// TestRestoreCompactedBatchesLeaveRoom restores a log whose first two
// batches a snapshot already covers (a crash between the snapshot's
// rename and the log's truncation). The restore reserves room for
// every logged row, so the skipped batches' rows are spare room: the
// restored relation equals the live one, and an append of as many
// rows writes into the restored columns' arrays in place.
func TestRestoreCompactedBatchesLeaveRoom(t *testing.T) {
	dir := t.TempDir()
	srv, ts := testServer(t, Config{DataDir: dir})
	c := ts.Client()
	id := ingestCSV(t, c, ts.URL, dirtyCSV)
	compacted := []wal.Batch{
		{BaseRows: 5, Rows: [][]string{{"10001", "TX", "90"}}},
		{BaseRows: 6, Rows: [][]string{{"90210", "NV", "91"}, {"60601", "IL", "92"}}},
	}
	for _, b := range compacted {
		appendRows(t, c, ts.URL, id, b.Rows)
	}
	sess := srv.reg.get(id)
	if err := srv.reg.store.save(sess); err != nil {
		t.Fatal(err)
	}
	sess.release()
	appendRows(t, c, ts.URL, id, [][]string{{"60601", "WA", "93"}})
	appendRows(t, c, ts.URL, id, [][]string{{"10001", "NY", "94"}, {"33101", "FL", "95"}})
	live := liveRelation(t, srv, id)
	ts.Close()

	// Put the compacted batches back at the head of the log.
	walPath := filepath.Join(dir, id+".adcw")
	rep, err := wal.Scan(storefs.Std, walPath)
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open(storefs.Std, walPath, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	for _, b := range append(compacted, rep.Batches...) {
		if err := l.Append(b.BaseRows, b.Rows); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	srv2, ts2 := testServer(t, Config{DataDir: dir})
	c2 := ts2.Client()
	restored := liveRelation(t, srv2, id)
	if diff := relationDiff(restored, live); diff != "" {
		t.Fatalf("restored relation: %s", diff)
	}
	if st := storageMetrics(t, c2, ts2.URL); st["wal_replayed_batches"].(float64) != 2 {
		t.Errorf("wal_replayed_batches = %v, want 2", st["wal_replayed_batches"])
	}
	appendRows(t, c2, ts2.URL, id, [][]string{{"10001", "NY", "96"}, {"90210", "CA", "97"}, {"60601", "IL", "98"}})
	grown := liveRelation(t, srv2, id)
	for j, col := range grown.Columns {
		if !slices.Equal(arrays(col), arrays(restored.Columns[j])) {
			t.Errorf("column %q: the append after the restore copied the column", col.Name)
		}
	}
}
