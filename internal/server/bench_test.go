package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"adc/internal/datagen"
)

// benchCSV builds the equality-heavy synthetic dataset for the serving
// benchmarks: a near-key Zip column (every zip unique except a few
// planted duplicates, some with conflicting states), State a function
// of zip, and a bulk Salary column. The zip→state DC then runs on the
// PLI path with small clusters, so a warm validate is dominated by the
// cached join while a cold one pays for index and plan construction
// over all n rows.
func benchCSV(n int) string {
	var sb strings.Builder
	sb.WriteString("Zip,State,Salary\n")
	for i := 0; i < n; i++ {
		zip := 10000 + i
		fmt.Fprintf(&sb, "%d,ST%02d,%d\n", zip, zip%47, 20000+zip%997)
	}
	// Planted duplicates: consistent ones exercise the join, a handful
	// of conflicts keep the answer nonzero.
	for i := 0; i < 24; i++ {
		zip := 10000 + i*31
		state := zip % 47
		if i%4 == 0 {
			state = (zip + 1) % 47 // conflicting duplicate
		}
		fmt.Fprintf(&sb, "%d,ST%02d,%d\n", zip, state, 20000+zip%997)
	}
	return sb.String()
}

func benchValidate(b *testing.B, ts *httptest.Server, id string, body []byte) {
	b.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/datasets/"+id+"/validate", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		b.Fatal(err)
	}
	var out struct {
		Violations int64 `json:"violations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.Violations == 0 {
		b.Fatalf("validate: status %d violations %d", resp.StatusCode, out.Violations)
	}
}

func benchSetup(b *testing.B) (*Server, *httptest.Server, string, []byte) {
	b.Helper()
	s, ts := testServer(b, Config{})
	id := ingestCSV(b, ts.Client(), ts.URL, benchCSV(20000))
	body, err := json.Marshal(map[string]any{"dcs": []string{zipStateDC}, "max_pairs": 0})
	if err != nil {
		b.Fatal(err)
	}
	return s, ts, id, body
}

// BenchmarkServerValidateWarm measures a validate request against a
// fully cached session: indexes built, plan compiled, join prepared.
func BenchmarkServerValidateWarm(b *testing.B) {
	_, ts, id, body := benchSetup(b)
	benchValidate(b, ts, id, body) // warm the caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchValidate(b, ts, id, body)
	}
}

// BenchmarkServerValidateCold measures the same request with the
// session's caches dropped before each iteration — the per-invocation
// cost a one-shot CLI pays on every run.
func BenchmarkServerValidateCold(b *testing.B) {
	s, ts, id, body := benchSetup(b)
	sess := s.reg.get(id)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sess.invalidate()
		b.StartTimer()
		benchValidate(b, ts, id, body)
	}
}

// benchAppend posts one append batch and fails on any non-200.
func benchAppend(b *testing.B, ts *httptest.Server, id string, body []byte) {
	b.Helper()
	resp, err := ts.Client().Post(ts.URL+"/datasets/"+id+"/rows", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("append: status %d", resp.StatusCode)
	}
}

// benchAppendWAL measures the append request path against a persistent
// session: derive the copy-on-write successor, write one WAL record
// (fsynced unless noSync), swap, ack. SnapshotEvery is set out of
// reach so the loop never pays for a compacting snapshot — that cost
// is periodic and amortized, while this benchmark isolates the
// per-append WAL overhead the durability gate bounds.
func benchAppendWAL(b *testing.B, noSync bool) {
	b.Helper()
	s, ts := testServer(b, Config{
		DataDir:       b.TempDir(),
		WALNoSync:     noSync,
		SnapshotEvery: 1 << 30,
		MaxMemBytes:   1 << 40,
	})
	_ = s
	id := ingestCSV(b, ts.Client(), ts.URL, benchCSV(2000))
	rows := make([][]string, 1024)
	for i := range rows {
		zip := 200000 + i
		rows[i] = []string{fmt.Sprint(zip), fmt.Sprintf("ST%02d", zip%47), fmt.Sprint(20000 + zip%997)}
	}
	body, err := json.Marshal(map[string]any{"rows": rows})
	if err != nil {
		b.Fatal(err)
	}
	benchAppend(b, ts, id, body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchAppend(b, ts, id, body)
	}
}

// BenchmarkServerAppendWALOn is the durable configuration: every acked
// batch fsynced to the WAL before the 200.
func BenchmarkServerAppendWALOn(b *testing.B) { benchAppendWAL(b, false) }

// BenchmarkServerAppendWALOff is the same path with the per-record
// fsync skipped — the denominator of the WAL-overhead gate.
func BenchmarkServerAppendWALOff(b *testing.B) { benchAppendWAL(b, true) }

// benchRestore measures storage.restore of a 20k-row tax session that
// took 32 four-row append batches: snapshot attach, index store, and
// log replay. With inWAL the batches sit in the session's write-ahead
// log, as after a crash below the snapshot interval; without it, a
// snapshot taken after the appends already holds them and the log is
// empty. The ratio of the two is the cost of replaying the log.
func benchRestore(b *testing.B, inWAL bool) {
	b.Helper()
	ds, err := datagen.ByName("tax", 20000, 1)
	if err != nil {
		b.Fatal(err)
	}
	var csv strings.Builder
	if err := ds.Rel.WriteCSV(&csv); err != nil {
		b.Fatal(err)
	}
	s, ts := testServer(b, Config{DataDir: b.TempDir(), WALNoSync: true})
	c := ts.Client()
	id := ingestCSV(b, c, ts.URL, csv.String())
	const batches, batchRows = 32, 4
	for k := 0; k < batches; k++ {
		rows := make([][]string, batchRows)
		for r := range rows {
			i := (k*batchRows + r) * 613 % ds.Rel.NumRows()
			rows[r] = make([]string, ds.Rel.NumColumns())
			for j, col := range ds.Rel.Columns {
				rows[r][j] = col.ValueString(i)
			}
		}
		appendRows(b, c, ts.URL, id, rows)
	}
	if !inWAL {
		sess := s.reg.get(id)
		s.reg.save(sess)
		sess.release()
	}
	want := ds.Rel.NumRows() + batches*batchRows
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := s.reg.store.restore(id)
		if err != nil {
			b.Fatal(err)
		}
		checker, _ := sess.state()
		if got := checker.Relation().NumRows(); got != want {
			b.Fatalf("restored %d rows, want %d", got, want)
		}
		sess.release()
	}
}

// BenchmarkServerRestoreWAL restores with the 32 batches in the log.
func BenchmarkServerRestoreWAL(b *testing.B) { benchRestore(b, true) }

// BenchmarkServerRestoreSnapshot restores the same rows from the
// snapshot alone — the denominator of the replay-overhead gate.
func BenchmarkServerRestoreSnapshot(b *testing.B) { benchRestore(b, false) }
