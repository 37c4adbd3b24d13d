package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

// testServer spins up a Server behind httptest.
func testServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// call issues a JSON request and decodes the JSON response.
func call(t testing.TB, client *http.Client, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return resp.StatusCode, out
}

// dirtyCSV is a small relation violating the zip→state dependency on
// rows 0/1 vs 2.
const dirtyCSV = "Zip,State,Salary\n10001,NY,50\n10001,NY,60\n10001,CA,70\n90210,CA,80\n90210,CA,55\n"

const zipStateDC = "not(t.Zip = t'.Zip and t.State != t'.State)"

func ingestCSV(t testing.TB, client *http.Client, base, csv string) string {
	t.Helper()
	code, resp := call(t, client, "POST", base+"/datasets", map[string]any{"name": "test", "csv": csv})
	if code != http.StatusCreated {
		t.Fatalf("ingest: status %d: %v", code, resp)
	}
	id, _ := resp["id"].(string)
	if id == "" {
		t.Fatalf("ingest: no id in %v", resp)
	}
	return id
}

func TestIngestAndValidate(t *testing.T) {
	_, ts := testServer(t, Config{})
	c := ts.Client()
	id := ingestCSV(t, c, ts.URL, dirtyCSV)

	code, resp := call(t, c, "POST", ts.URL+"/datasets/"+id+"/validate",
		map[string]any{"dcs": []string{zipStateDC}})
	if code != http.StatusOK {
		t.Fatalf("validate: status %d: %v", code, resp)
	}
	if ok := resp["ok"].(bool); ok {
		t.Errorf("dirty data validated ok")
	}
	if v := resp["violations"].(float64); v != 4 {
		t.Errorf("violations = %v, want 4", v)
	}
	dcs := resp["dcs"].([]any)
	if len(dcs) != 1 {
		t.Fatalf("dcs = %v", dcs)
	}
	first := dcs[0].(map[string]any)
	if first["path"] != "pli" {
		t.Errorf("path = %v, want pli", first["path"])
	}
	if first["loss_f1"].(float64) <= 0 {
		t.Errorf("loss_f1 = %v, want > 0", first["loss_f1"])
	}

	// Loose epsilon flips the verdict without re-ingesting anything.
	code, resp = call(t, c, "POST", ts.URL+"/datasets/"+id+"/validate",
		map[string]any{"dcs": []string{zipStateDC}, "epsilon": 0.5})
	if code != http.StatusOK || !resp["ok"].(bool) {
		t.Errorf("epsilon 0.5 validate: status %d ok=%v", code, resp["ok"])
	}
}

// TestValidateHugeWorkers sends a worker count far past the checker's
// cap: the validate must answer 200 with the verdicts of a default one,
// on the forced scan (one count array per worker) and the planner.
func TestValidateHugeWorkers(t *testing.T) {
	_, ts := testServer(t, Config{})
	c := ts.Client()
	id := ingestCSV(t, c, ts.URL, dirtyCSV)
	for _, path := range []string{"scan", "auto"} {
		body := map[string]any{"dcs": []string{zipStateDC}, "path": path}
		code, want := call(t, c, "POST", ts.URL+"/datasets/"+id+"/validate", body)
		if code != http.StatusOK {
			t.Fatalf("%s validate: status %d: %v", path, code, want)
		}
		body["workers"] = 1000000
		code, got := call(t, c, "POST", ts.URL+"/datasets/"+id+"/validate", body)
		if code != http.StatusOK {
			t.Fatalf("%s validate with 1000000 workers: status %d: %v", path, code, got)
		}
		if !reflect.DeepEqual(got["dcs"], want["dcs"]) || got["ok"] != want["ok"] || got["violations"] != want["violations"] {
			t.Errorf("%s validate with 1000000 workers = %v, want %v", path, got, want)
		}
	}
}

// TestIngestStreamingCSV registers a dataset by streaming a text/csv
// body — no JSON envelope, no server-side buffering of the CSV — and
// checks it serves validates like a JSON-registered one.
func TestIngestStreamingCSV(t *testing.T) {
	_, ts := testServer(t, Config{})
	c := ts.Client()

	resp, err := c.Post(ts.URL+"/datasets?name=dirty", "text/csv", bytes.NewReader([]byte(dirtyCSV)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("streaming ingest: status %d", resp.StatusCode)
	}
	var view map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view["name"] != "dirty" || view["rows"].(float64) != 5 {
		t.Fatalf("view = %v", view)
	}
	if view["mem_bytes"].(float64) <= 0 {
		t.Fatalf("mem_bytes = %v, want > 0", view["mem_bytes"])
	}
	id := view["id"].(string)

	code, vresp := call(t, c, "POST", ts.URL+"/datasets/"+id+"/validate",
		map[string]any{"dcs": []string{zipStateDC}})
	if code != http.StatusOK {
		t.Fatalf("validate after streaming ingest: status %d: %v", code, vresp)
	}
	if v := vresp["violations"].(float64); v != 4 {
		t.Errorf("violations = %v, want 4", v)
	}

	// header=0 (ParseBool spelling) names columns c0..; the media type
	// match is case-insensitive per RFC 2045.
	resp2, err := c.Post(ts.URL+"/datasets?name=raw&header=0", "Text/CSV; charset=utf-8",
		bytes.NewReader([]byte("1,x\n2,y\n")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("headerless streaming ingest: status %d", resp2.StatusCode)
	}
	var v2 map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&v2); err != nil {
		t.Fatal(err)
	}
	cols := v2["columns"].([]any)
	if cols[0].(map[string]any)["name"] != "c0" {
		t.Fatalf("columns = %v", cols)
	}

	resp3, err := c.Post(ts.URL+"/datasets", "text/csv", bytes.NewReader([]byte("a,b\n1,2\n3\n")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("ragged streaming ingest: status %d, want 400", resp3.StatusCode)
	}

	// A non-boolean header param is a 400, not a silent header=true.
	resp4, err := c.Post(ts.URL+"/datasets?header=no", "text/csv", bytes.NewReader([]byte("a\n1\n2\n")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("header=no: status %d, want 400", resp4.StatusCode)
	}
}

func TestValidateErrors(t *testing.T) {
	_, ts := testServer(t, Config{})
	c := ts.Client()
	id := ingestCSV(t, c, ts.URL, dirtyCSV)

	cases := []struct {
		name string
		url  string
		body any
		want int
	}{
		{"unknown dataset", ts.URL + "/datasets/ds-999/validate", map[string]any{"dcs": []string{zipStateDC}}, 404},
		{"no dcs", ts.URL + "/datasets/" + id + "/validate", map[string]any{}, 400},
		{"malformed dc", ts.URL + "/datasets/" + id + "/validate", map[string]any{"dcs": []string{"t.Zip ~ t'.Zip"}}, 400},
		{"unknown column", ts.URL + "/datasets/" + id + "/validate", map[string]any{"dcs": []string{"not(t.Nope = t'.Nope)"}}, 400},
		{"bad approx", ts.URL + "/datasets/" + id + "/validate", map[string]any{"dcs": []string{zipStateDC}, "approx": "f9"}, 400},
		{"bad path", ts.URL + "/datasets/" + id + "/validate", map[string]any{"dcs": []string{zipStateDC}, "path": "warp"}, 400},
		{"unknown field", ts.URL + "/datasets/" + id + "/validate", map[string]any{"dcs": []string{zipStateDC}, "bogus": 1}, 400},
	}
	for _, tc := range cases {
		code, resp := call(t, c, "POST", tc.url, tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d (want %d): %v", tc.name, code, tc.want, resp)
			continue
		}
		if code >= 400 {
			if msg, _ := resp["error"].(string); msg == "" {
				t.Errorf("%s: no error message in %v", tc.name, resp)
			}
		}
	}
}

func TestIngestErrors(t *testing.T) {
	_, ts := testServer(t, Config{})
	c := ts.Client()
	cases := []struct {
		name string
		body any
	}{
		{"empty", map[string]any{}},
		{"both", map[string]any{"csv": dirtyCSV, "generate": map[string]any{"dataset": "tax", "rows": 10}}},
		{"bad generator", map[string]any{"generate": map[string]any{"dataset": "nope", "rows": 10}}},
		{"tiny", map[string]any{"generate": map[string]any{"dataset": "tax", "rows": 1}}},
		{"bad noise", map[string]any{"generate": map[string]any{"dataset": "tax", "rows": 10, "noise": "salty"}}},
		{"noise rate over 1", map[string]any{"generate": map[string]any{"dataset": "tax", "rows": 10, "noise": "skewed", "noise_rate": 2}}},
		{"negative noise rate", map[string]any{"generate": map[string]any{"dataset": "tax", "rows": 10, "noise": "spread", "noise_rate": -0.5}}},
		{"bad csv", map[string]any{"csv": "a,b\n1\n"}},
	}
	for _, tc := range cases {
		if code, resp := call(t, c, "POST", ts.URL+"/datasets", tc.body); code != 400 {
			t.Errorf("%s: status %d: %v", tc.name, code, resp)
		}
	}
}

func TestRepair(t *testing.T) {
	_, ts := testServer(t, Config{})
	c := ts.Client()
	id := ingestCSV(t, c, ts.URL, dirtyCSV)

	code, resp := call(t, c, "POST", ts.URL+"/datasets/"+id+"/repair",
		map[string]any{"dcs": []string{zipStateDC}})
	if code != http.StatusOK {
		t.Fatalf("repair: status %d: %v", code, resp)
	}
	remove := resp["remove"].([]any)
	if len(remove) != 1 || remove[0].(float64) != 2 {
		t.Errorf("remove = %v, want [2]", remove)
	}
	if rows := resp["clean_rows"].(float64); rows != 4 {
		t.Errorf("clean_rows = %v, want 4", rows)
	}
}

func TestAppendRows(t *testing.T) {
	_, ts := testServer(t, Config{})
	c := ts.Client()

	// Start clean: drop the CA-under-10001 row.
	cleanCSV := "Zip,State,Salary\n10001,NY,50\n10001,NY,60\n90210,CA,80\n90210,CA,55\n"
	id := ingestCSV(t, c, ts.URL, cleanCSV)

	code, resp := call(t, c, "POST", ts.URL+"/datasets/"+id+"/validate",
		map[string]any{"dcs": []string{zipStateDC}})
	if code != 200 || !resp["clean"].(bool) {
		t.Fatalf("pre-append validate: status %d clean=%v", code, resp["clean"])
	}

	// Append one consistent row and one violating row. The validate
	// above cached exactly the Zip index (the DC's only join column),
	// and both appended zips already exist, so it is patched — not
	// dropped and rebuilt.
	code, resp = call(t, c, "POST", ts.URL+"/datasets/"+id+"/rows",
		map[string]any{"rows": [][]string{{"90210", "CA", "50"}, {"10001", "TX", "60"}}})
	if code != http.StatusOK {
		t.Fatalf("append: status %d: %v", code, resp)
	}
	if rows := resp["rows"].(float64); rows != 6 {
		t.Errorf("rows = %v, want 6", rows)
	}
	if patched := resp["patched_indexes"].(float64); patched != 1 {
		t.Errorf("patched_indexes = %v, want 1 (the cached Zip index)", patched)
	}
	if dropped := resp["dropped_indexes"].(float64); dropped != 0 {
		t.Errorf("dropped_indexes = %v, want 0", dropped)
	}

	code, resp = call(t, c, "POST", ts.URL+"/datasets/"+id+"/validate",
		map[string]any{"dcs": []string{zipStateDC}})
	if code != 200 {
		t.Fatalf("post-append validate: status %d: %v", code, resp)
	}
	if resp["clean"].(bool) {
		t.Errorf("appended violation not detected")
	}
	if v := resp["violations"].(float64); v != 4 {
		t.Errorf("violations = %v, want 4 (TX row vs both NY rows, both orders)", v)
	}

	// Type mismatches are rejected and change nothing.
	code, _ = call(t, c, "POST", ts.URL+"/datasets/"+id+"/rows",
		map[string]any{"rows": [][]string{{"not-a-zip", "CA", "50"}}})
	if code != 400 {
		t.Errorf("bad append: status %d, want 400", code)
	}
	code, resp = call(t, c, "GET", ts.URL+"/datasets/"+id, nil)
	if code != 200 || resp["rows"].(float64) != 6 {
		t.Errorf("after bad append: status %d rows=%v, want 6", code, resp["rows"])
	}
}

func TestMineJob(t *testing.T) {
	_, ts := testServer(t, Config{})
	c := ts.Client()

	code, resp := call(t, c, "POST", ts.URL+"/datasets",
		map[string]any{"generate": map[string]any{"dataset": "hospital", "rows": 48, "seed": 1}})
	if code != http.StatusCreated {
		t.Fatalf("generate: status %d: %v", code, resp)
	}
	id := resp["id"].(string)
	if g, _ := resp["golden_dcs"].([]any); len(g) == 0 {
		t.Errorf("generated dataset has no golden DCs: %v", resp)
	}

	code, resp = call(t, c, "POST", ts.URL+"/datasets/"+id+"/mine",
		map[string]any{"approx": "f1", "epsilon": 0.01, "max_predicates": 3, "seed": 1})
	if code != http.StatusAccepted {
		t.Fatalf("mine: status %d: %v", code, resp)
	}
	jobID := resp["job"].(string)

	resp = pollJob(t, c, ts.URL, jobID)
	if state := resp["state"].(string); state != jobDone {
		t.Fatalf("job state = %q (%v)", state, resp["error"])
	}
	result := resp["result"].(map[string]any)
	if n := result["num_dcs"].(float64); n <= 0 {
		t.Errorf("mined %v DCs, want > 0", n)
	}
	if resp["duration_ms"].(float64) <= 0 {
		t.Errorf("no duration on finished job")
	}

	// A second identical mine hits the session's evidence cache: poll
	// to completion and check it still agrees. It runs with 8
	// enumeration workers — the mined set must not depend on "workers".
	code, resp = call(t, c, "POST", ts.URL+"/datasets/"+id+"/mine",
		map[string]any{"approx": "f1", "epsilon": 0.01, "max_predicates": 3, "seed": 1, "workers": 8})
	if code != http.StatusAccepted {
		t.Fatalf("re-mine: status %d", code)
	}
	jobID = resp["job"].(string)
	resp = pollJob(t, c, ts.URL, jobID)
	if resp["state"].(string) != jobDone {
		t.Fatalf("re-mine state = %v (%v)", resp["state"], resp["error"])
	}
	again := resp["result"].(map[string]any)
	if again["num_dcs"] != result["num_dcs"] {
		t.Errorf("cached re-mine found %v DCs, first run %v", again["num_dcs"], result["num_dcs"])
	}

	// Both mines recorded their evidence stage in /metrics: the build
	// histogram has two observations and a positive distinct-set count.
	code, resp = call(t, c, "GET", ts.URL+"/metrics", nil)
	if code != 200 {
		t.Fatalf("metrics: status %d", code)
	}
	evAll, ok := resp["evidence"].(map[string]any)
	if !ok {
		t.Fatalf("metrics has no evidence section: %v", resp)
	}
	ev, ok := evAll[id].(map[string]any)
	if !ok {
		t.Fatalf("no evidence stats for dataset %s: %v", id, evAll)
	}
	if builds := ev["builds"].(float64); builds != 2 {
		t.Errorf("evidence builds = %v, want 2", builds)
	}
	if distinct := ev["distinct_sets"].(float64); distinct <= 0 {
		t.Errorf("evidence distinct_sets = %v, want > 0", distinct)
	}
	if p99 := ev["p99_us"].(float64); p99 <= 0 {
		t.Errorf("evidence p99_us = %v, want > 0", p99)
	}
	if p50 := ev["p50_us"].(float64); p50 <= 0 || p50 > ev["p99_us"].(float64) {
		t.Errorf("evidence p50_us = %v, want in (0, p99]", p50)
	}

	if code, _ := call(t, c, "GET", ts.URL+"/jobs/job-999", nil); code != 404 {
		t.Errorf("unknown job: status %d, want 404", code)
	}

	// A failing job reports failed, not a hung "running".
	code, resp = call(t, c, "POST", ts.URL+"/datasets/"+id+"/mine",
		map[string]any{"algorithm": "nope"})
	if code != http.StatusAccepted {
		t.Fatalf("bad mine accept: status %d", code)
	}
	jobID = resp["job"].(string)
	resp = pollJob(t, c, ts.URL, jobID)
	if resp["state"].(string) != jobFailed || resp["error"].(string) == "" {
		t.Errorf("bad algorithm job = %v", resp)
	}
}

// pollJob polls a job until it leaves the running state, with its own
// generous deadline (race-instrumented mining is slow).
func pollJob(t *testing.T, c *http.Client, base, jobID string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		code, resp := call(t, c, "GET", base+"/jobs/"+jobID, nil)
		if code != 200 {
			t.Fatalf("job poll: status %d: %v", code, resp)
		}
		if resp["state"].(string) != jobRunning {
			return resp
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s still running after 120s", jobID)
	return nil
}

// TestConcurrentValidate fires 32 concurrent validate requests (plus a
// few appends-free reads) at one cached session — the acceptance bar
// for the shared session state, meaningful under -race.
func TestConcurrentValidate(t *testing.T) {
	_, ts := testServer(t, Config{})
	c := ts.Client()
	id := ingestCSV(t, c, ts.URL, dirtyCSV)

	const workers = 32
	var wg sync.WaitGroup
	errs := make(chan error, workers*4)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				code, resp := call(t, c, "POST", ts.URL+"/datasets/"+id+"/validate",
					map[string]any{"dcs": []string{zipStateDC}, "workers": 1 + w%3})
				if code != http.StatusOK {
					errs <- fmt.Errorf("worker %d: status %d: %v", w, code, resp)
					return
				}
				if v := resp["violations"].(float64); v != 4 {
					errs <- fmt.Errorf("worker %d: violations = %v, want 4", w, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// All that traffic hit one session: the plan cache should be nearly
	// all hits.
	_, resp := call(t, c, "GET", ts.URL+"/metrics", nil)
	cache := resp["cache"].(map[string]any)
	if hits := cache["plan_hits"].(float64); hits < workers*4-1 {
		t.Errorf("plan_hits = %v, want >= %d", hits, workers*4-1)
	}
	if rate := cache["hit_rate"].(float64); rate < 0.9 {
		t.Errorf("hit_rate = %v, want >= 0.9", rate)
	}
}

func TestLRUEvictionAndLimits(t *testing.T) {
	_, ts := testServer(t, Config{MaxDatasets: 2})
	c := ts.Client()

	a := ingestCSV(t, c, ts.URL, dirtyCSV)
	b := ingestCSV(t, c, ts.URL, dirtyCSV)
	// Touch a so b is the LRU victim when a third arrives.
	if code, _ := call(t, c, "GET", ts.URL+"/datasets/"+a, nil); code != 200 {
		t.Fatalf("touch a: %d", code)
	}
	code, resp := call(t, c, "POST", ts.URL+"/datasets", map[string]any{"csv": dirtyCSV})
	if code != http.StatusCreated {
		t.Fatalf("third ingest: %d", code)
	}
	evicted, _ := resp["evicted"].([]any)
	if len(evicted) != 1 || evicted[0].(string) != b {
		t.Errorf("evicted = %v, want [%s]", evicted, b)
	}
	if code, _ := call(t, c, "GET", ts.URL+"/datasets/"+b, nil); code != 404 {
		t.Errorf("evicted dataset still served: %d", code)
	}
	if code, _ := call(t, c, "GET", ts.URL+"/datasets/"+a, nil); code != 200 {
		t.Errorf("recently used dataset evicted: %d", code)
	}

	code, resp = call(t, c, "GET", ts.URL+"/datasets", nil)
	if code != 200 {
		t.Fatalf("list: %d", code)
	}
	if got := len(resp["datasets"].([]any)); got != 2 {
		t.Errorf("list has %d datasets, want 2", got)
	}

	code, resp = call(t, c, "DELETE", ts.URL+"/datasets/"+a, nil)
	if code != 200 || resp["deleted"].(string) != a {
		t.Errorf("delete = %d %v", code, resp)
	}
	if code, _ = call(t, c, "DELETE", ts.URL+"/datasets/"+a, nil); code != 404 {
		t.Errorf("double delete: %d, want 404", code)
	}
}

func TestMemoryCapEviction(t *testing.T) {
	// A cap small enough that two datasets cannot coexist, but the
	// newest always survives.
	_, ts := testServer(t, Config{MaxMemBytes: 1})
	c := ts.Client()
	a := ingestCSV(t, c, ts.URL, dirtyCSV)
	b := ingestCSV(t, c, ts.URL, dirtyCSV)
	if code, _ := call(t, c, "GET", ts.URL+"/datasets/"+a, nil); code != 404 {
		t.Errorf("over-cap LRU dataset survived: %d", code)
	}
	if code, _ := call(t, c, "GET", ts.URL+"/datasets/"+b, nil); code != 200 {
		t.Errorf("newest dataset evicted: %d", code)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := testServer(t, Config{})
	c := ts.Client()
	id := ingestCSV(t, c, ts.URL, dirtyCSV)
	for k := 0; k < 3; k++ {
		call(t, c, "POST", ts.URL+"/datasets/"+id+"/validate", map[string]any{"dcs": []string{zipStateDC}})
	}

	code, resp := call(t, c, "GET", ts.URL+"/healthz", nil)
	if code != 200 || resp["ok"] != true {
		t.Fatalf("healthz = %d %v", code, resp)
	}
	if resp["datasets"].(float64) != 1 {
		t.Errorf("healthz datasets = %v, want 1", resp["datasets"])
	}

	code, resp = call(t, c, "GET", ts.URL+"/metrics", nil)
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	requests := resp["requests"].(map[string]any)
	if n := requests["POST /datasets/{id}/validate"].(float64); n != 3 {
		t.Errorf("validate request count = %v, want 3", n)
	}
	latency := resp["latency"].(map[string]any)
	vlat := latency["POST /datasets/{id}/validate"].(map[string]any)
	if vlat["count"].(float64) != 3 || vlat["p50_us"].(float64) <= 0 || vlat["p99_us"].(float64) < vlat["p50_us"].(float64) {
		t.Errorf("validate latency summary = %v", vlat)
	}
	cache := resp["cache"].(map[string]any)
	if cache["plan_misses"].(float64) < 1 || cache["plan_hits"].(float64) < 2 {
		t.Errorf("cache stats = %v", cache)
	}
	sessions := resp["sessions"].(map[string]any)
	if sessions["mem_bytes"].(float64) <= 0 {
		t.Errorf("sessions = %v", sessions)
	}
}

func TestInvalidate(t *testing.T) {
	_, ts := testServer(t, Config{})
	c := ts.Client()
	id := ingestCSV(t, c, ts.URL, dirtyCSV)
	call(t, c, "POST", ts.URL+"/datasets/"+id+"/validate", map[string]any{"dcs": []string{zipStateDC}})

	code, resp := call(t, c, "GET", ts.URL+"/datasets/"+id, nil)
	if code != 200 || resp["cached_indexes"].(float64) == 0 {
		t.Fatalf("no cached indexes after validate: %v", resp)
	}
	if code, _ := call(t, c, "POST", ts.URL+"/datasets/"+id+"/invalidate", nil); code != 200 {
		t.Fatalf("invalidate: %d", code)
	}
	_, resp = call(t, c, "GET", ts.URL+"/datasets/"+id, nil)
	if resp["cached_indexes"].(float64) != 0 {
		t.Errorf("cached_indexes = %v after invalidate, want 0", resp["cached_indexes"])
	}
	// Still serves correctly from cold.
	code, resp = call(t, c, "POST", ts.URL+"/datasets/"+id+"/validate", map[string]any{"dcs": []string{zipStateDC}})
	if code != 200 || resp["violations"].(float64) != 4 {
		t.Errorf("post-invalidate validate = %d %v", code, resp["violations"])
	}
}

func TestValidateMaxPairs(t *testing.T) {
	_, ts := testServer(t, Config{})
	c := ts.Client()
	id := ingestCSV(t, c, ts.URL, dirtyCSV)

	zero := 0
	one := 1
	for _, tc := range []struct {
		maxPairs *int
		want     int
	}{
		{nil, 4},   // default cap 10 ≥ the 4 violations
		{&zero, 0}, // no pairs requested
		{&one, 1},
	} {
		body := map[string]any{"dcs": []string{zipStateDC}}
		if tc.maxPairs != nil {
			body["max_pairs"] = *tc.maxPairs
		}
		_, resp := call(t, c, "POST", ts.URL+"/datasets/"+id+"/validate", body)
		dc := resp["dcs"].([]any)[0].(map[string]any)
		pairs, _ := dc["pairs"].([]any)
		if len(pairs) != tc.want {
			t.Errorf("max_pairs=%v: %d pairs, want %d", tc.maxPairs, len(pairs), tc.want)
		}
		if dc["violations"].(float64) != 4 {
			t.Errorf("max_pairs=%v: violations = %v, want 4 (counts stay exact)", tc.maxPairs, dc["violations"])
		}
	}
}

func TestScanPathForced(t *testing.T) {
	_, ts := testServer(t, Config{})
	c := ts.Client()
	id := ingestCSV(t, c, ts.URL, dirtyCSV)
	_, resp := call(t, c, "POST", ts.URL+"/datasets/"+id+"/validate",
		map[string]any{"dcs": []string{zipStateDC}, "path": "scan"})
	dc := resp["dcs"].([]any)[0].(map[string]any)
	if dc["path"] != "scan" {
		t.Errorf("path = %v, want scan", dc["path"])
	}
	if dc["violations"].(float64) != 4 {
		t.Errorf("scan violations = %v, want 4", dc["violations"])
	}
}

// TestMineDeltaMetrics drives the incremental evidence path end to end
// over HTTP — mine, append, warm re-mine — and asserts the new
// evidence_delta block in /metrics (builds, pairs, fallbacks) plus the
// per-job delta fields, mirroring the per-stage latency assertions of
// TestMineJob.
func TestMineDeltaMetrics(t *testing.T) {
	_, ts := testServer(t, Config{})
	c := ts.Client()

	csv := "Zip,State,Salary\n10001,NY,50\n10001,NY,60\n90210,CA,80\n90210,CA,55\n30301,GA,70\n30301,GA,75\n"
	id := ingestCSV(t, c, ts.URL, csv)
	mine := func() map[string]any {
		code, resp := call(t, c, "POST", ts.URL+"/datasets/"+id+"/mine",
			map[string]any{"approx": "f1", "epsilon": 0.05, "max_predicates": 2})
		if code != http.StatusAccepted {
			t.Fatalf("mine: status %d: %v", code, resp)
		}
		resp = pollJob(t, c, ts.URL, resp["job"].(string))
		if resp["state"].(string) != jobDone {
			t.Fatalf("mine job state = %v (%v)", resp["state"], resp["error"])
		}
		return resp["result"].(map[string]any)
	}

	cold := mine()
	if d, _ := cold["evidence_delta"].(bool); d {
		t.Fatalf("cold mine claims the delta path: %v", cold)
	}

	// Append rows whose values all exist (the predicate space cannot
	// change structurally), then re-mine: the session's cache survived
	// the append and the mine patches its evidence in O(delta).
	code, resp := call(t, c, "POST", ts.URL+"/datasets/"+id+"/rows",
		map[string]any{"rows": [][]string{{"10001", "CA", "80"}, {"90210", "NY", "55"}}})
	if code != http.StatusOK {
		t.Fatalf("append: status %d: %v", code, resp)
	}
	warm := mine()
	if d, _ := warm["evidence_delta"].(bool); !d {
		t.Fatalf("post-append mine did not take the delta path: %v", warm)
	}
	// 6 old rows, 2 appended: 2·k·(n−k) + k(k−1) = 2·2·6 + 2 = 26.
	if p := warm["evidence_delta_pairs"].(float64); p != 26 {
		t.Errorf("evidence_delta_pairs = %v, want 26", p)
	}
	code, resp = call(t, c, "GET", ts.URL+"/metrics", nil)
	if code != 200 {
		t.Fatalf("metrics: status %d", code)
	}
	ed, ok := resp["evidence_delta"].(map[string]any)
	if !ok {
		t.Fatalf("metrics has no evidence_delta section: %v", resp)
	}
	if builds := ed["builds"].(float64); builds != 1 {
		t.Errorf("evidence_delta builds = %v, want 1", builds)
	}
	if pairs := ed["pairs"].(float64); pairs != 26 {
		t.Errorf("evidence_delta pairs = %v, want 26", pairs)
	}
	if fb := ed["fallbacks"].(float64); fb != 0 {
		t.Errorf("evidence_delta fallbacks = %v, want 0", fb)
	}

	// The escape hatch still drops everything: after invalidate, the
	// next mine is a scratch build again — and, mining the same grown
	// relation, it must find exactly the DCs the delta path found.
	if code, _ := call(t, c, "POST", ts.URL+"/datasets/"+id+"/invalidate", nil); code != 200 {
		t.Fatalf("invalidate: status %d", code)
	}
	after := mine()
	if d, _ := after["evidence_delta"].(bool); d {
		t.Errorf("mine after invalidate still claims the delta path")
	}
	if after["num_dcs"] != warm["num_dcs"] {
		t.Errorf("delta-path mine found %v DCs, scratch mine of the same relation %v",
			warm["num_dcs"], after["num_dcs"])
	}
}
