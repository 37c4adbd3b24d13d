package server

import (
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"adc"
	"adc/internal/colstore"
	"adc/internal/pli"
	"adc/internal/storefs"
	"adc/internal/wal"
)

// appendRows posts one append batch and fails on any non-200.
func appendRows(t testing.TB, client *http.Client, base, id string, rows [][]string) {
	t.Helper()
	code, resp := call(t, client, "POST", base+"/datasets/"+id+"/rows",
		map[string]any{"rows": rows})
	if code != http.StatusOK {
		t.Fatalf("append: status %d: %v", code, resp)
	}
}

// listedDataset returns the listing view for id, failing if absent.
func listedDataset(t testing.TB, client *http.Client, base, id string) map[string]any {
	t.Helper()
	code, resp := call(t, client, "GET", base+"/datasets", nil)
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	for _, v := range resp["datasets"].([]any) {
		d := v.(map[string]any)
		if d["id"] == id {
			return d
		}
	}
	t.Fatalf("dataset %s not listed: %v", id, resp)
	return nil
}

// waitFor polls cond for up to two seconds — for effects that land on
// a deferred release after the HTTP response is already on the wire.
func waitFor(t testing.TB, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// relationRows reads a session's relation cell-by-cell through the
// public accessors, so two relations can be compared without caring
// about lazily built internals.
func relationRows(t testing.TB, srv *Server, id string) [][]string {
	t.Helper()
	sess := srv.reg.get(id)
	if sess == nil {
		t.Fatalf("session %s not found", id)
	}
	defer sess.release()
	checker, _ := sess.state()
	rel := checker.Relation()
	rows := make([][]string, rel.NumRows())
	for i := range rows {
		row := make([]string, len(rel.Columns))
		for j, c := range rel.Columns {
			row[j] = c.ValueString(i)
		}
		rows[i] = row
	}
	return rows
}

// TestWALCrashRecovery is the core durability contract: acked append
// batches that no snapshot covers yet (the compaction threshold is the
// default 64) survive a crash via WAL replay — same rows, same
// verdicts, append count intact.
func TestWALCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServer(t, Config{DataDir: dir})
	c := ts.Client()
	id := ingestCSV(t, c, ts.URL, dirtyCSV)
	appendRows(t, c, ts.URL, id, [][]string{{"10001", "TX", "90"}})
	appendRows(t, c, ts.URL, id, [][]string{{"90210", "NV", "91"}, {"60601", "IL", "92"}})
	appendRows(t, c, ts.URL, id, [][]string{{"60601", "WA", "93"}})
	want := validateViolations(t, c, ts.URL, id)
	ts.Close() // crash: no snapshot covers the three batches

	srv2, ts2 := testServer(t, Config{DataDir: dir})
	c2 := ts2.Client()
	view := listedDataset(t, c2, ts2.URL, id)
	if view["rows"].(float64) != 9 {
		t.Errorf("recovered rows = %v, want 9 (5 ingested + 4 appended)", view["rows"])
	}
	if view["appends"].(float64) != 3 {
		t.Errorf("recovered appends = %v, want 3", view["appends"])
	}
	if got := validateViolations(t, c2, ts2.URL, id); got != want {
		t.Errorf("recovered violations = %v, want %v", got, want)
	}
	st := storageMetrics(t, c2, ts2.URL)
	if st["wal_replayed_batches"].(float64) != 3 {
		t.Errorf("wal_replayed_batches = %v, want 3", st["wal_replayed_batches"])
	}
	_ = srv2
}

// TestWALReplayDeterminism compares a crashed-and-replayed session
// against a never-crashed one fed the identical operations: the
// relations must match cell for cell.
func TestWALReplayDeterminism(t *testing.T) {
	batches := [][][]string{
		{{"10001", "TX", "90"}},
		{{"90210", "NV", "91"}, {"60601", "IL", "92"}},
		{{"60601", "WA", "93"}, {"10001", "NY", "94"}, {"33101", "FL", "95"}},
	}

	dir := t.TempDir()
	_, ts := testServer(t, Config{DataDir: dir})
	c := ts.Client()
	id := ingestCSV(t, c, ts.URL, dirtyCSV)
	for _, b := range batches {
		appendRows(t, c, ts.URL, id, b)
	}
	ts.Close() // crash

	crashed, ts2 := testServer(t, Config{DataDir: dir})
	c2 := ts2.Client()
	validateViolations(t, c2, ts2.URL, id) // forces the restore + replay

	clean, ts3 := testServer(t, Config{})
	c3 := ts3.Client()
	cleanID := ingestCSV(t, c3, ts3.URL, dirtyCSV)
	for _, b := range batches {
		appendRows(t, c3, ts3.URL, cleanID, b)
	}

	got := relationRows(t, crashed, id)
	want := relationRows(t, clean, cleanID)
	if len(got) != len(want) {
		t.Fatalf("replayed relation has %d rows, clean run has %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("replay diverges at row %d col %d: %q vs %q", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestWALTornTrailingRecordDiscarded injects a torn write — half the
// final WAL record lands but the writer saw full success, the power-cut
// shape — and asserts recovery discards exactly that batch and nothing
// else, without failing startup or the restore.
func TestWALTornTrailingRecordDiscarded(t *testing.T) {
	dir := t.TempDir()
	fsys := storefs.NewFaulty(nil)
	_, ts := testServer(t, Config{DataDir: dir, FS: fsys})
	c := ts.Client()
	id := ingestCSV(t, c, ts.URL, dirtyCSV)
	appendRows(t, c, ts.URL, id, [][]string{{"10001", "TX", "90"}})
	// The next FS operation is the final batch's WAL record write: tear
	// it in half. The append still acks — the server cannot know.
	fsys.InjectAt(1, storefs.FaultTornWrite, nil)
	appendRows(t, c, ts.URL, id, [][]string{{"90210", "NV", "91"}})
	ts.Close() // crash with a torn tail on disk

	// Recovery on a healthy filesystem: the first batch replays, the
	// torn one is checksum-rejected and truncated away.
	_, ts2 := testServer(t, Config{DataDir: dir})
	c2 := ts2.Client()
	view := listedDataset(t, c2, ts2.URL, id)
	if view["rows"].(float64) != 6 {
		t.Errorf("rows after torn-tail recovery = %v, want 6 (torn batch dropped)", view["rows"])
	}
	if got := validateViolations(t, c2, ts2.URL, id); got <= 0 {
		t.Errorf("recovered session does not serve: violations = %v", got)
	}
	st := storageMetrics(t, c2, ts2.URL)
	if st["wal_dropped_bytes"].(float64) <= 0 {
		t.Errorf("wal_dropped_bytes = %v, want > 0", st["wal_dropped_bytes"])
	}
	if st["wal_replayed_batches"].(float64) != 1 {
		t.Errorf("wal_replayed_batches = %v, want 1", st["wal_replayed_batches"])
	}
}

// TestWALStaleAndGapBatchesSkipped covers the compaction crash window:
// a record whose base row count the snapshot already covers (the crash
// hit between the snapshot rename and the WAL truncate) is skipped on
// replay, and a record beyond the live row count (foreign bytes) stops
// the replay — neither corrupts the session or fails the restore.
func TestWALStaleAndGapBatchesSkipped(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServer(t, Config{DataDir: dir})
	c := ts.Client()
	id := ingestCSV(t, c, ts.URL, dirtyCSV)
	appendRows(t, c, ts.URL, id, [][]string{{"10001", "TX", "90"}})
	want := validateViolations(t, c, ts.URL, id)
	ts.Close()

	// Plant a stale record (base 3 < the snapshot's 5 rows: compacted
	// in before the crash) and a gap record (base 100: not reachable).
	l, _, err := wal.Open(storefs.Std, dir+"/"+id+".adcw", wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(3, [][]string{{"99999", "XX", "1"}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(100, [][]string{{"88888", "YY", "2"}}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, ts2 := testServer(t, Config{DataDir: dir})
	c2 := ts2.Client()
	view := listedDataset(t, c2, ts2.URL, id)
	if view["rows"].(float64) != 6 {
		t.Errorf("rows = %v, want 6 (stale and gap records skipped)", view["rows"])
	}
	if got := validateViolations(t, c2, ts2.URL, id); got != want {
		t.Errorf("violations after skip = %v, want %v", got, want)
	}
}

// TestDegradedModeOnWALFault pins graceful degradation: when the WAL
// write fails (ENOSPC), the append still acks, the session latches
// memory-only mode, /healthz raises the flag, and /metrics counts it.
func TestDegradedModeOnWALFault(t *testing.T) {
	dir := t.TempDir()
	fsys := storefs.NewFaulty(nil)
	_, ts := testServer(t, Config{DataDir: dir, FS: fsys})
	c := ts.Client()
	id := ingestCSV(t, c, ts.URL, dirtyCSV)

	fsys.InjectAt(1, storefs.FaultErr, errors.New("no space left on device"))
	appendRows(t, c, ts.URL, id, [][]string{{"10001", "TX", "90"}}) // must still ack
	appendRows(t, c, ts.URL, id, [][]string{{"90210", "NV", "91"}}) // memory-only now

	code, health := call(t, c, "GET", ts.URL+"/healthz", nil)
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if health["storage_degraded"] != true {
		t.Errorf("storage_degraded = %v, want true", health["storage_degraded"])
	}
	if health["degraded_datasets"].(float64) != 1 {
		t.Errorf("degraded_datasets = %v, want 1", health["degraded_datasets"])
	}
	st := storageMetrics(t, c, ts.URL)
	if st["wal_errors"].(float64) < 1 {
		t.Errorf("wal_errors = %v, want >= 1", st["wal_errors"])
	}
	if st["degraded_sessions"].(float64) != 1 {
		t.Errorf("degraded_sessions = %v, want 1", st["degraded_sessions"])
	}
	// The degraded session keeps serving every acked row from memory.
	if got := validateViolations(t, c, ts.URL, id); got <= 0 {
		t.Errorf("degraded session does not serve appended rows: %v", got)
	}
}

// TestMinePanicRecovered pins the blast-radius contract for mining: a
// panic inside a mine job becomes a failed job with the panic message,
// is counted in /metrics, and leaves the server fully alive.
func TestMinePanicRecovered(t *testing.T) {
	mineJobHook = func(string) { panic("boom: synthetic dataset fault") }
	defer func() { mineJobHook = nil }()

	_, ts := testServer(t, Config{})
	c := ts.Client()
	id := ingestCSV(t, c, ts.URL, dirtyCSV)
	code, resp := call(t, c, "POST", ts.URL+"/datasets/"+id+"/mine", map[string]any{})
	if code != http.StatusAccepted {
		t.Fatalf("mine: status %d: %v", code, resp)
	}
	jobID := resp["job"].(string)

	var job map[string]any
	waitFor(t, "mine job to fail", func() bool {
		_, job = call(t, c, "GET", ts.URL+"/jobs/"+jobID, nil)
		return job["state"] == "failed" || job["state"] == "done"
	})
	if job["state"] != "failed" {
		t.Fatalf("panicking job state = %v, want failed", job["state"])
	}
	if msg, _ := job["error"].(string); !strings.Contains(msg, "mine panicked") || !strings.Contains(msg, "boom") {
		t.Errorf("job error = %q, want the panic message", job["error"])
	}

	code, metrics := call(t, c, "GET", ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if metrics["mine_panics"].(float64) < 1 {
		t.Errorf("mine_panics = %v, want >= 1", metrics["mine_panics"])
	}

	// The server survived: the same dataset mines cleanly once the
	// hook stops panicking.
	mineJobHook = nil
	code, resp = call(t, c, "POST", ts.URL+"/datasets/"+id+"/mine", map[string]any{})
	if code != http.StatusAccepted {
		t.Fatalf("mine after panic: status %d", code)
	}
	jobID = resp["job"].(string)
	waitFor(t, "post-panic mine job", func() bool {
		_, job = call(t, c, "GET", ts.URL+"/jobs/"+jobID, nil)
		return job["state"] == "done" || job["state"] == "failed"
	})
	if job["state"] != "done" {
		t.Errorf("post-panic mine job state = %v, want done: %v", job["state"], job["error"])
	}
}

// TestSnapshotUnmappedOnDelete pins the address-space hygiene contract:
// a restored session holds an mmap of its snapshot, and DELETE must
// release the mapping when the last reference drops.
func TestSnapshotUnmappedOnDelete(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServer(t, Config{DataDir: dir})
	c := ts.Client()
	id := ingestCSV(t, c, ts.URL, dirtyCSV)
	ts.Close()

	base := colstore.OpenAttachments()
	_, ts2 := testServer(t, Config{DataDir: dir})
	c2 := ts2.Client()
	validateViolations(t, c2, ts2.URL, id) // restores, mmap-attaches
	if colstore.OpenAttachments() == base {
		t.Skip("colstore restore did not mmap on this platform")
	}
	if code, _ := call(t, c2, "DELETE", ts2.URL+"/datasets/"+id, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	waitFor(t, "mapping release after DELETE", func() bool {
		return colstore.OpenAttachments() == base
	})
}

// TestSnapshotUnmappedOnEvict is the same contract for LRU eviction:
// spilling a restored session back to disk must not leak its mapping.
func TestSnapshotUnmappedOnEvict(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServer(t, Config{DataDir: dir})
	c := ts.Client()
	id := ingestCSV(t, c, ts.URL, dirtyCSV)
	ts.Close()

	base := colstore.OpenAttachments()
	_, ts2 := testServer(t, Config{DataDir: dir, MaxDatasets: 1})
	c2 := ts2.Client()
	validateViolations(t, c2, ts2.URL, id) // restores, mmap-attaches
	if colstore.OpenAttachments() == base {
		t.Skip("colstore restore did not mmap on this platform")
	}
	ingestCSV(t, c2, ts2.URL, dirtyCSV) // evicts the restored session
	waitFor(t, "mapping release after evict", func() bool {
		return colstore.OpenAttachments() == base
	})
	// The evicted session is intact on disk and restores again.
	view := listedDataset(t, c2, ts2.URL, id)
	if view["spilled"] != true {
		t.Fatalf("evicted session not listed as spilled: %v", view)
	}
}

// TestWALReplayCoalescedMatchesPerBatch pins that restoring a session
// replays its log exactly as applying the logged batches one at a time
// would: the same rows and dictionary codes, the same index set (the
// State index patched with an unseen value, the Salary index dropped
// by one), the same append count, wal_replayed_batches and WAL errors.
// Stale records sit at the head and in the middle of each log; in the
// second, a batch the column types reject (only a foreign or
// hand-edited log holds one) stops the replay in front of it.
func TestWALReplayCoalescedMatchesPerBatch(t *testing.T) {
	stale := wal.Batch{BaseRows: 3, Rows: [][]string{{"99999", "XX", "1"}}}
	newState := [][]string{{"10001", "TX", "50"}}
	newSalary := [][]string{{"90210", "CA", "12345"}, {"10001", "NY", "60"}}
	known := [][]string{{"90210", "CA", "80"}}
	rejected := [][]string{{"not-a-zip", "NY", "50"}}
	cases := []struct {
		name          string
		log           []wal.Batch
		salaryDropped bool
	}{
		{"applied as one append", []wal.Batch{
			stale, {BaseRows: 5, Rows: newState}, {BaseRows: 6, Rows: newSalary},
			{BaseRows: 5, Rows: known}, {BaseRows: 8, Rows: known},
		}, true},
		{"rejected batch mid-log", []wal.Batch{
			stale, {BaseRows: 5, Rows: newState}, {BaseRows: 6, Rows: rejected},
			{BaseRows: 7, Rows: newSalary}, {BaseRows: 9, Rows: known},
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			srv, ts := testServer(t, Config{DataDir: dir})
			id := ingestCSV(t, ts.Client(), ts.URL, dirtyCSV)
			sess := srv.reg.get(id)
			checker, _ := sess.state()
			checker.Indexes().Warm(nil, 1)
			srv.reg.save(sess) // the snapshot carries every index
			sess.release()
			ts.Close()

			l, _, err := wal.Open(storefs.Std, dir+"/"+id+".adcw", wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range tc.log {
				if err := l.Append(b.BaseRows, b.Rows); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()

			// The reference: the snapshot plus the log applied batch
			// by batch under the replay rules.
			snap, err := colstore.Load(dir + "/" + id + ".adcs")
			if err != nil {
				t.Fatal(err)
			}
			store, err := pli.RestoreStore(snap.Relation.Columns, snap.Indexes)
			if err != nil {
				t.Fatal(err)
			}
			want, err := adc.NewCheckerWithStore(snap.Relation, store)
			if err != nil {
				t.Fatal(err)
			}
			applied, walErrors := 0, 0
			for _, b := range tc.log {
				rows := want.Relation().NumRows()
				if b.BaseRows < rows {
					continue
				}
				if b.BaseRows > rows {
					break
				}
				next, _, _, err := want.AppendRows(b.Rows)
				if err != nil {
					walErrors++
					break
				}
				want, applied = next, applied+1
			}

			srv2, ts2 := testServer(t, Config{DataDir: dir})
			c2 := ts2.Client()
			restored := srv2.reg.get(id)
			got, _ := restored.state()
			restored.release()
			if got.Relation().NumRows() != want.Relation().NumRows() {
				t.Fatalf("restored %d rows, per-batch replay %d", got.Relation().NumRows(), want.Relation().NumRows())
			}
			for j, w := range want.Relation().Columns {
				g := got.Relation().Columns[j]
				for i := 0; i < w.Len(); i++ {
					if g.ValueString(i) != w.ValueString(i) {
						t.Fatalf("column %q row %d: restored %q, per-batch %q", w.Name, i, g.ValueString(i), w.ValueString(i))
					}
				}
				if !reflect.DeepEqual(g.Codes, w.Codes) {
					t.Errorf("column %q codes: restored %v, per-batch %v", w.Name, g.Codes, w.Codes)
				}
			}
			gotIdx, wantIdx := got.Indexes().Snapshot(), want.Indexes().Snapshot()
			if !reflect.DeepEqual(gotIdx, wantIdx) {
				t.Errorf("restored index set differs from per-batch replay")
			}
			state, salary := got.Relation().ColumnIndex("State"), got.Relation().ColumnIndex("Salary")
			if gotIdx[state] == nil || (gotIdx[salary] == nil) != tc.salaryDropped {
				t.Errorf("State index built %v, Salary index dropped %v; want true, %v",
					gotIdx[state] != nil, gotIdx[salary] == nil, tc.salaryDropped)
			}
			view := listedDataset(t, c2, ts2.URL, id)
			if got, want := view["appends"].(float64), float64(snap.Meta.Appends+int64(applied)); got != want {
				t.Errorf("appends = %v, want %v", got, want)
			}
			st := storageMetrics(t, c2, ts2.URL)
			if got, _ := st["wal_replayed_batches"].(float64); got != float64(applied) {
				t.Errorf("wal_replayed_batches = %v, want %d", got, applied)
			}
			if got, _ := st["wal_errors"].(float64); got != float64(walErrors) {
				t.Errorf("wal_errors = %v, want %d", got, walErrors)
			}
		})
	}
}
