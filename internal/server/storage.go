package server

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"time"

	"adc"
	"adc/internal/colstore"
	"adc/internal/hist"
	"adc/internal/pli"
	"adc/internal/storefs"
	"adc/internal/wal"
)

// storage is the persistent tier behind a data directory: every
// registered session is snapshotted to <dir>/<id>.adcs (atomically,
// via colstore.WriteFileFS) at registration, and every acked append
// batch lands in the session's write-ahead log <dir>/<id>.adcw
// (fsynced before the ack; see internal/wal) — a periodic snapshot
// compacts the log away. Eviction spills to disk instead of
// discarding, and get() restores spilled sessions by mmap-attaching
// their snapshot and replaying the WAL on top — no CSV re-ingest, no
// PLI rebuild, no lost acked appends. A restarted server scans the
// directory and resumes every session it finds. All writes go through
// the storefs seam, so fault-injection tests can exercise every error
// path. nil *storage (no -data-dir) disables the tier; every method
// no-ops.
type storage struct {
	dir       string
	fsys      storefs.FS
	walNoSync bool

	mu          sync.Mutex
	written     int64 // snapshots written (register, append, spill)
	loaded      int64 // snapshots restored into live sessions
	spills      int64 // evictions that went to disk instead of the void
	writeErrors int64 // failed best-effort snapshot writes
	walErrors   int64 // failed WAL opens/appends (each degrades a session)
	walReplayed int64 // WAL batches replayed into restored sessions
	walDropped  int64 // torn/corrupt WAL bytes discarded during recovery
	restoreHist *hist.Histogram
}

func newStorage(dir string, fsys storefs.FS, walNoSync bool) (*storage, error) {
	if dir == "" {
		return nil, nil
	}
	if fsys == nil {
		fsys = storefs.Std
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &storage{dir: dir, fsys: fsys, walNoSync: walNoSync, restoreHist: hist.New()}, nil
}

func (st *storage) path(id string) string {
	return filepath.Join(st.dir, id+".adcs")
}

func (st *storage) walPath(id string) string {
	return filepath.Join(st.dir, id+".adcw")
}

// noteWALError counts a WAL failure (the caller degrades the session).
func (st *storage) noteWALError(error) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.walErrors++
	st.mu.Unlock()
}

// openWAL attaches a fresh write-ahead log to a newly registered
// session. Any stale content under the id (a crashed predecessor whose
// files were never cleaned) is truncated away — the session's snapshot
// was just written, so the log starts empty. On failure the session
// simply runs without a WAL and falls back to snapshot-per-append.
func (st *storage) openWAL(sess *session) {
	if st == nil {
		return
	}
	sess.store = st
	l, rep, err := wal.Open(st.fsys, st.walPath(sess.id), wal.Options{NoSync: st.walNoSync})
	if err != nil {
		st.noteWALError(err)
		return
	}
	if len(rep.Batches) > 0 {
		if err := l.Truncate(); err != nil {
			st.noteWALError(err)
			l.Close() //nolint:errcheck // unusable anyway
			return
		}
	}
	sess.wal = l
}

// save snapshots a session's current state — relation, every PLI built
// so far, and the registry metadata needed to restore the entry — and
// compacts the session's WAL: once the snapshot covers every logged
// batch, the log is truncated. It quiesces appends (appendMu) for the
// duration, so no acked batch can slip between the snapshot and the
// truncate and be lost; the lock order is registry.mu → appendMu,
// matching every other path. Best-effort: a failure is counted, not
// fatal, since the in-memory session stays authoritative — but a
// failed snapshot leaves the WAL untouched, so durability holds.
func (st *storage) save(sess *session) error {
	if st == nil {
		return nil
	}
	sess.appendMu.Lock()
	defer sess.appendMu.Unlock()
	checker, _ := sess.state()
	sess.mu.RLock()
	appends := sess.appends
	sess.mu.RUnlock()
	snap := &colstore.Snapshot{
		Relation: checker.Relation(),
		Indexes:  checker.Indexes().Snapshot(),
		Meta: colstore.Meta{
			Name:    sess.name,
			Golden:  sess.golden,
			Appends: appends,
			Created: sess.created.UTC().Format(time.RFC3339Nano),
		},
	}
	err := colstore.WriteFileFS(st.fsys, st.path(sess.id), snap)
	st.mu.Lock()
	if err != nil {
		st.writeErrors++
	} else {
		st.written++
	}
	st.mu.Unlock()
	if err != nil {
		sess.degraded.Store(true)
		return err
	}
	if sess.wal != nil {
		if terr := sess.wal.Truncate(); terr != nil {
			st.noteWALError(terr)
		}
	}
	return nil
}

// restore revives a spilled session from its snapshot plus WAL. The
// WAL is opened first (salvaging its valid prefix, truncating any torn
// tail), so the snapshot can be attached with room for every logged
// row: its columns then own arrays the replay writes into in place,
// instead of viewing the mapping and being copied by the replay's
// append. The index store is restored with every PLI the snapshot
// carries, the checker adopts it, and the batches the snapshot does
// not already cover (see replayRun) replay on top as one append. A WAL
// that cannot be opened degrades the session rather than failing the
// restore — the snapshot alone is still a consistent (if older) state,
// attached with no room. The mapping is owned by the session and
// released when its last reference drops (evict, DELETE).
func (st *storage) restore(id string) (*session, error) {
	start := time.Now()
	l, rep, err := wal.Open(st.fsys, st.walPath(id), wal.Options{NoSync: st.walNoSync})
	if err != nil {
		st.noteWALError(err)
		rep = &wal.Replay{}
	}
	// Every batch's rows bound the replay's: batches the snapshot
	// already covers leave spare room.
	room := 0
	for _, b := range rep.Batches {
		room += len(b.Rows)
	}
	var snap *colstore.Snapshot
	fail := func(err error) (*session, error) {
		if snap != nil {
			snap.Close() //nolint:errcheck // the restore error wins
		}
		if l != nil {
			l.Close() //nolint:errcheck // the restore error wins
		}
		return nil, err
	}
	if snap, err = colstore.AttachWithRoom(st.path(id), room); err != nil {
		return fail(err)
	}
	store, err := pli.RestoreStore(snap.Relation.Columns, snap.Indexes)
	if err != nil {
		return fail(err)
	}
	checker, err := adc.NewCheckerWithStore(snap.Relation, store)
	if err != nil {
		return fail(err)
	}
	applied := int64(0)
	if l != nil {
		checker, applied = st.replay(id, checker, replayRun(rep.Batches, snap.Relation.NumRows()))
		st.mu.Lock()
		st.walReplayed += applied
		st.walDropped += rep.DiscardedBytes
		st.mu.Unlock()
	}
	created, err := time.Parse(time.RFC3339Nano, snap.Meta.Created)
	if err != nil {
		created = time.Now()
	}
	sess := &session{
		id:      id,
		name:    snap.Meta.Name,
		created: created,
		golden:  snap.Meta.Golden,
		checker: checker,
		mine:    adc.NewMineCache(),
		appends: snap.Meta.Appends + applied,
		evHist:  hist.New(),
		wal:     l,
		store:   st,
		snap:    snap,
	}
	sess.refs.Store(1) // the registry's reference
	if l == nil {
		sess.degraded.Store(true)
	}
	st.mu.Lock()
	st.loaded++
	st.restoreHist.Observe(time.Since(start))
	st.mu.Unlock()
	return sess, nil
}

// replayRun returns the WAL batches that extend a snapshot of rows
// rows, in order. A batch whose base row count is below the running
// count was compacted in before the crash (the crash hit between the
// snapshot rename and the WAL truncate) and is skipped; a gap above it
// means bytes from a foreign or tampered file and ends the run.
func replayRun(batches []wal.Batch, rows int) []wal.Batch {
	var run []wal.Batch
	for _, b := range batches {
		if b.BaseRows < rows {
			continue
		}
		if b.BaseRows > rows {
			break
		}
		run = append(run, b)
		rows += len(b.Rows)
	}
	return run
}

// replay applies a replay run to checker with one AppendRows call and
// returns the result and the number of batches applied. The column
// types reject a logged batch only in a foreign or hand-edited log;
// then the run replays batch by batch up to the rejected one, which is
// logged as a WAL error.
func (st *storage) replay(id string, checker *adc.Checker, run []wal.Batch) (*adc.Checker, int64) {
	if len(run) == 0 {
		return checker, 0
	}
	var rows [][]string
	for _, b := range run {
		rows = append(rows, b.Rows...)
	}
	if next, _, _, err := checker.AppendRows(rows); err == nil {
		return next, int64(len(run))
	}
	applied := int64(0)
	for _, b := range run {
		next, _, _, err := checker.AppendRows(b.Rows)
		if err != nil {
			st.noteWALError(fmt.Errorf("wal replay %s: %w", id, err))
			break
		}
		checker = next
		applied++
	}
	return checker, applied
}

// remove deletes a session's snapshot and WAL files
// (DELETE /datasets/{id}).
func (st *storage) remove(id string) {
	if st == nil {
		return
	}
	st.fsys.Remove(st.path(id))    //nolint:errcheck // already gone is fine
	st.fsys.Remove(st.walPath(id)) //nolint:errcheck // already gone is fine
}

// spillEntry is a session living only on disk: enough registry state to
// list it and to restore it on demand.
type spillEntry struct {
	name    string
	rows    int
	columns int
	golden  []string
	created string
	appends int64
}

var (
	snapshotName = regexp.MustCompile(`^(ds-(\d+))\.adcs$`)
	walName      = regexp.MustCompile(`^(ds-(\d+))\.adcw$`)
)

// scan lists the data directory's snapshots as spill entries keyed by
// session id, and returns the highest session number seen, so a
// restarted server resumes its id sequence past every persisted
// session. Each entry's row and append counts include the acked
// batches sitting in the session's WAL beyond its snapshot, so the
// listing a crashed server's successor serves already reflects every
// durable append — before any session is actually restored.
// Unreadable or corrupt snapshots are skipped — a torn file must not
// prevent startup.
func (st *storage) scan() (map[string]*spillEntry, int) {
	if st == nil {
		return nil, 0
	}
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, 0
	}
	spilled := make(map[string]*spillEntry)
	maxID := 0
	for _, e := range entries {
		m := snapshotName.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		info, err := colstore.ReadMeta(filepath.Join(st.dir, e.Name()))
		if err != nil {
			continue
		}
		id := m[1]
		rows, appends := info.Rows, info.Meta.Appends
		if rep, err := wal.Scan(st.fsys, st.walPath(id)); err == nil {
			for _, b := range replayRun(rep.Batches, rows) {
				rows += len(b.Rows)
				appends++
			}
		}
		spilled[id] = &spillEntry{
			name:    info.Meta.Name,
			rows:    rows,
			columns: info.Columns,
			golden:  info.Meta.Golden,
			created: info.Meta.Created,
			appends: appends,
		}
		if n, err := strconv.Atoi(m[2]); err == nil && n > maxID {
			maxID = n
		}
	}
	return spilled, maxID
}

// storageStats is the exported storage summary for /metrics.
type storageStats struct {
	Enabled          bool    `json:"enabled"`
	SnapshotsWritten int64   `json:"snapshots_written"`
	SnapshotsLoaded  int64   `json:"snapshots_loaded"`
	Spills           int64   `json:"spills"`
	WriteErrors      int64   `json:"write_errors,omitempty"`
	WALErrors        int64   `json:"wal_errors,omitempty"`
	WALReplayed      int64   `json:"wal_replayed_batches,omitempty"`
	WALDroppedBytes  int64   `json:"wal_dropped_bytes,omitempty"`
	DegradedSessions int     `json:"degraded_sessions,omitempty"`
	SpilledSessions  int     `json:"spilled_sessions"`
	BytesOnDisk      int64   `json:"bytes_on_disk"`
	Restores         int64   `json:"restores"`
	RestoreMeanUS    float64 `json:"restore_mean_us"`
	RestoreP50US     float64 `json:"restore_p50_us"`
	RestoreP99US     float64 `json:"restore_p99_us"`
}

// stats summarizes the tier: counters, restore latency quantiles, and
// the bytes currently on disk — snapshots and WALs both — walked live,
// so external cleanup shows up immediately.
func (st *storage) stats(spilledSessions, degradedSessions int) storageStats {
	if st == nil {
		return storageStats{}
	}
	var bytes int64
	if entries, err := os.ReadDir(st.dir); err == nil {
		for _, e := range entries {
			if snapshotName.MatchString(e.Name()) || walName.MatchString(e.Name()) {
				if info, err := e.Info(); err == nil {
					bytes += info.Size()
				}
			}
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return storageStats{
		Enabled:          true,
		SnapshotsWritten: st.written,
		SnapshotsLoaded:  st.loaded,
		Spills:           st.spills,
		WriteErrors:      st.writeErrors,
		WALErrors:        st.walErrors,
		WALReplayed:      st.walReplayed,
		WALDroppedBytes:  st.walDropped,
		DegradedSessions: degradedSessions,
		SpilledSessions:  spilledSessions,
		BytesOnDisk:      bytes,
		Restores:         st.restoreHist.Count(),
		RestoreMeanUS:    float64(st.restoreHist.Mean()) / float64(time.Microsecond),
		RestoreP50US:     float64(st.restoreHist.Quantile(0.50)) / float64(time.Microsecond),
		RestoreP99US:     float64(st.restoreHist.Quantile(0.99)) / float64(time.Microsecond),
	}
}

// spillView renders a spilled session for GET /datasets: present, on
// disk, restored transparently on first touch.
func spillView(id string, e *spillEntry) datasetView {
	return datasetView{
		ID:        id,
		Name:      e.name,
		Rows:      e.rows,
		GoldenDCs: e.golden,
		Appends:   e.appends,
		Created:   e.created,
		Spilled:   true,
	}
}

// String implements fmt.Stringer for debugging.
func (e *spillEntry) String() string {
	return fmt.Sprintf("%s (%d rows, %d cols, %d appends)", e.name, e.rows, e.columns, e.appends)
}
