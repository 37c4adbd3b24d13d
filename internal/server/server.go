// Package server implements dcserved: denial-constraint mining and
// checking as a long-lived HTTP/JSON service. Where the CLIs re-ingest
// the dataset and rebuild every index on each invocation, the server
// registers datasets once (POST /datasets) and serves all later
// traffic from cached per-dataset sessions — parsed rows, per-column
// position list indexes, compiled DC plans, and lazily built evidence
// sets — so a warm validate skips straight to the candidate-pair join.
//
// Mining is slow and therefore asynchronous (POST /datasets/{id}/mine
// returns a job polled via GET /jobs/{id}); validate and repair are
// synchronous. POST /datasets/{id}/rows appends tuples, patching the
// cached indexes where the new values allow instead of rebuilding.
// Sessions live in an RWMutex'd store with LRU eviction under
// configurable session-count and memory caps; /healthz and /metrics
// expose liveness, request counts, cache hit rates, and latency
// quantiles. All constraint logic is the public adc API — the same
// code paths the CLIs use; the server adds only caching and transport.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"mime"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"adc"
	"adc/internal/storefs"
)

// noiseKind maps the wire names to the Section 8.4 noise models.
func noiseKind(name string) (adc.NoiseKind, error) {
	switch name {
	case "spread":
		return adc.SpreadNoise, nil
	case "skewed":
		return adc.SkewedNoise, nil
	}
	return 0, fmt.Errorf("unknown noise kind %q (want spread or skewed)", name)
}

// newNoiseRNG derives the noise stream from the generation seed; an
// offset keeps it distinct from the generator's own stream.
func newNoiseRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed + 1<<32))
}

// Config tunes the serving layer. The zero value gets sane defaults.
type Config struct {
	// MaxDatasets caps registered dataset sessions; the least recently
	// used session is evicted when a registration exceeds it. 0 means
	// the default of 64.
	MaxDatasets int
	// MaxMemBytes caps the estimated memory of all sessions (relations
	// plus cached indexes, plans, and evidence); least-recently-used
	// sessions are evicted while over it, though the most recent one
	// always survives. 0 means the default of 1 GiB.
	MaxMemBytes int64
	// MaxBodyBytes caps request body size. 0 means the default of 64 MiB.
	MaxBodyBytes int64
	// DataDir, when set, turns on the persistent storage tier: every
	// session is snapshotted there (columnar format, see
	// internal/colstore) at registration, every acked append batch is
	// fsynced to the session's write-ahead log before the 200 (see
	// internal/wal), LRU eviction spills sessions to disk instead of
	// discarding them, a touched spilled session restores by mmap
	// attach plus WAL replay without CSV re-ingest or index rebuilds,
	// and a restarted server resumes every session the directory holds
	// — acked appends included. Empty disables persistence.
	DataDir string
	// WALNoSync skips the per-record WAL fsync. Acked appends then
	// survive a process crash but not a power cut. The default (false)
	// fsyncs every record before the ack.
	WALNoSync bool
	// SnapshotEvery is the number of WAL records a session accumulates
	// before an append triggers a full snapshot (which compacts the
	// WAL away). Durability does not depend on it — every acked batch
	// is in the WAL regardless — it only bounds replay work and log
	// growth. 0 means the default of 64.
	SnapshotEvery int
	// FS overrides the filesystem the storage tier writes through.
	// nil means the real filesystem; tests inject storefs.Faulty here
	// to exercise disk-failure paths.
	FS storefs.FS
}

func (c Config) withDefaults() Config {
	if c.MaxDatasets == 0 {
		c.MaxDatasets = 64
	}
	if c.MaxMemBytes == 0 {
		c.MaxMemBytes = 1 << 30
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 64
	}
	return c
}

// Server is the dcserved HTTP handler with its session registry, job
// store, and metrics. Create with New; serve via Handler.
type Server struct {
	cfg     Config
	reg     *registry
	jobs    *jobStore
	met     *metrics
	delta   deltaMetrics
	mux     *http.ServeMux
	started time.Time

	// minePanics counts mining goroutines that panicked and were
	// recovered into failed jobs instead of killing the server.
	minePanics atomic.Int64
}

// mineJobHook, when non-nil, runs at the start of every mining job —
// a test seam for exercising the panic-recovery path with a
// deliberately panicking dataset hook.
var mineJobHook func(dataset string)

// New builds a Server with the given configuration. It errors only
// when Config.DataDir is set and cannot be created.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	store, err := newStorage(cfg.DataDir, cfg.FS, cfg.WALNoSync)
	if err != nil {
		return nil, fmt.Errorf("server: data dir: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		reg:     newRegistry(cfg.MaxDatasets, cfg.MaxMemBytes, store),
		jobs:    newJobStore(),
		met:     newMetrics(),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	s.handle("POST /datasets", s.handleIngest)
	s.handle("GET /datasets", s.handleList)
	s.handle("GET /datasets/{id}", s.handleInfo)
	s.handle("DELETE /datasets/{id}", s.handleDelete)
	s.handle("POST /datasets/{id}/rows", s.handleAppend)
	s.handle("POST /datasets/{id}/validate", s.handleValidate)
	s.handle("POST /datasets/{id}/repair", s.handleRepair)
	s.handle("POST /datasets/{id}/mine", s.handleMine)
	s.handle("POST /datasets/{id}/invalidate", s.handleInvalidate)
	s.handle("GET /jobs/{id}", s.handleJob)
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain waits for the asynchronous mining jobs still in flight.
// http.Server.Shutdown covers only HTTP requests; the mine handler
// answers 202 and keeps working in a goroutine, so a graceful stop is
// Shutdown (no new jobs can be submitted) followed by Drain (the
// accepted ones finish — and with persistence on, their sessions'
// snapshots are already safe on disk regardless). Returns the
// context's error if the deadline cuts the drain short.
func (s *Server) Drain(ctx context.Context) error {
	return s.jobs.drain(ctx)
}

// handle registers an instrumented route: the pattern labels the
// request count and latency histogram in /metrics.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.Handle(pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.arrive(pattern)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		h(sw, r)
		s.met.observe(pattern, sw.status, time.Since(start))
	}))
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// ---- JSON plumbing -------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

// findSession resolves {id} or writes a 404. A non-nil session
// carries a reference pinning its mapped memory; the handler must
// release it when done.
func (s *Server) findSession(w http.ResponseWriter, r *http.Request) *session {
	id := r.PathValue("id")
	sess := s.reg.get(id)
	if sess == nil {
		writeErr(w, http.StatusNotFound, "no dataset %q", id)
	}
	return sess
}

// parseSpecs parses the request's constraints, 400-ing on none or on a
// malformed line.
func parseSpecs(w http.ResponseWriter, lines []string) ([]adc.DCSpec, bool) {
	if len(lines) == 0 {
		writeErr(w, http.StatusBadRequest, "no constraints: supply dcs as a list of DC strings")
		return nil, false
	}
	specs := make([]adc.DCSpec, 0, len(lines))
	for k, line := range lines {
		spec, err := adc.ParseDCSpec(line)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "dcs[%d]: %v", k, err)
			return nil, false
		}
		specs = append(specs, spec)
	}
	return specs, true
}

// ---- Ingest and dataset management ---------------------------------------

type generateRequest struct {
	// Dataset names one of the paper's synthetic generators (tax,
	// stock, hospital, food, airport, adult, flight, voter).
	Dataset string `json:"dataset"`
	Rows    int    `json:"rows"`
	Seed    int64  `json:"seed"`
	// Noise optionally dirties the generated relation: "spread"
	// (independent cells) or "skewed" (concentrated in few tuples).
	Noise     string  `json:"noise,omitempty"`
	NoiseRate float64 `json:"noise_rate,omitempty"`
}

type ingestRequest struct {
	// Name labels the dataset; defaults to the generator name or "csv".
	Name string `json:"name,omitempty"`
	// CSV holds inline CSV data. Exactly one of CSV or Generate.
	CSV string `json:"csv,omitempty"`
	// Header marks the first CSV record as the header (default true).
	Header *bool `json:"header,omitempty"`
	// Generate builds a synthetic dataset instead of parsing CSV.
	Generate *generateRequest `json:"generate,omitempty"`
}

type columnView struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

type datasetView struct {
	ID            string       `json:"id"`
	Name          string       `json:"name"`
	Rows          int          `json:"rows"`
	Columns       []columnView `json:"columns"`
	GoldenDCs     []string     `json:"golden_dcs,omitempty"`
	MemBytes      int64        `json:"mem_bytes"`
	CachedIndexes int          `json:"cached_indexes"`
	Appends       int64        `json:"appends"`
	Created       string       `json:"created"`
	Evicted       []string     `json:"evicted,omitempty"`
	// Spilled marks a session living only on disk: it restores
	// transparently (mmap attach, no re-ingest) on first touch.
	Spilled bool `json:"spilled,omitempty"`
}

func viewOf(sess *session) datasetView {
	checker, _ := sess.state()
	rel := checker.Relation()
	v := datasetView{
		ID:            sess.id,
		Name:          sess.name,
		Rows:          rel.NumRows(),
		GoldenDCs:     sess.golden,
		MemBytes:      sess.memBytes(),
		CachedIndexes: checker.CachedIndexes(),
		Created:       sess.created.UTC().Format(time.RFC3339Nano),
	}
	sess.mu.RLock()
	v.Appends = sess.appends
	sess.mu.RUnlock()
	for _, c := range rel.Columns {
		v.Columns = append(v.Columns, columnView{Name: c.Name, Type: c.Type.String()})
	}
	return v
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	// A text/csv body streams straight through the chunk-parallel
	// reader — the request is parsed as it arrives, and the server
	// never buffers the CSV (the JSON form below necessarily does,
	// since the CSV rides inside a JSON string). Name and header come
	// from query parameters: POST /datasets?name=tax&header=true.
	if mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type")); err == nil && mt == "text/csv" {
		name := r.URL.Query().Get("name")
		if name == "" {
			name = "csv"
		}
		header := true
		if hv := r.URL.Query().Get("header"); hv != "" {
			b, err := strconv.ParseBool(hv)
			if err != nil {
				writeErr(w, http.StatusBadRequest, "header=%q is not a boolean", hv)
				return
			}
			header = b
		}
		rel, err := adc.ReadCSV(r.Body, name, header)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.registerDataset(w, name, rel, nil)
		return
	}
	var req ingestRequest
	if !decodeBody(w, r, &req) {
		return
	}
	var rel *adc.Relation
	var golden []string
	name := req.Name
	switch {
	case req.CSV != "" && req.Generate != nil:
		writeErr(w, http.StatusBadRequest, "supply csv or generate, not both")
		return
	case req.CSV != "":
		header := req.Header == nil || *req.Header
		if name == "" {
			name = "csv"
		}
		var err error
		rel, err = adc.ReadCSV(strings.NewReader(req.CSV), name, header)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
	case req.Generate != nil:
		g := req.Generate
		if g.Rows < 2 {
			writeErr(w, http.StatusBadRequest, "generate.rows must be at least 2, got %d", g.Rows)
			return
		}
		ds, err := adc.GenerateDataset(g.Dataset, g.Rows, g.Seed)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		rel = ds.Rel
		if g.Noise != "" {
			kind, err := noiseKind(g.Noise)
			if err != nil {
				writeErr(w, http.StatusBadRequest, "%v", err)
				return
			}
			if g.NoiseRate < 0 || g.NoiseRate > 1 {
				writeErr(w, http.StatusBadRequest, "generate.noise_rate must be in [0, 1], got %v", g.NoiseRate)
				return
			}
			rel = adc.AddNoise(rel, kind, g.NoiseRate, newNoiseRNG(g.Seed))
		}
		for _, dc := range ds.Golden {
			golden = append(golden, dc.String())
		}
		if name == "" {
			name = g.Dataset
		}
	default:
		writeErr(w, http.StatusBadRequest, "supply csv data or a generate spec")
		return
	}
	s.registerDataset(w, name, rel, golden)
}

// registerDataset validates and registers a parsed relation, shared by
// the streaming (text/csv) and JSON ingest forms.
func (s *Server) registerDataset(w http.ResponseWriter, name string, rel *adc.Relation, golden []string) {
	if rel.NumRows() < 2 {
		writeErr(w, http.StatusBadRequest, "dataset needs at least 2 rows, got %d", rel.NumRows())
		return
	}
	sess, evicted := s.reg.add(name, rel, golden)
	defer sess.release()
	v := viewOf(sess)
	v.Evicted = evicted
	writeJSON(w, http.StatusCreated, v)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	sessions := s.reg.list()
	defer releaseAll(sessions)
	out := make([]datasetView, 0, len(sessions))
	for _, sess := range sessions {
		out = append(out, viewOf(sess))
	}
	out = append(out, s.reg.spilledViews()...)
	writeJSON(w, http.StatusOK, map[string]any{"datasets": out})
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	sess := s.findSession(w, r)
	if sess == nil {
		return
	}
	defer sess.release()
	writeJSON(w, http.StatusOK, viewOf(sess))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.reg.remove(id) {
		writeErr(w, http.StatusNotFound, "no dataset %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	sess := s.findSession(w, r)
	if sess == nil {
		return
	}
	defer sess.release()
	sess.invalidate()
	writeJSON(w, http.StatusOK, map[string]any{"invalidated": sess.id})
}

// ---- Append --------------------------------------------------------------

type appendRequest struct {
	// Rows are string values in column order, parsed against the
	// existing column types.
	Rows [][]string `json:"rows"`
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	sess := s.findSession(w, r)
	if sess == nil {
		return
	}
	defer sess.release()
	var req appendRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Rows) == 0 {
		writeErr(w, http.StatusBadRequest, "no rows to append")
		return
	}
	rows, patched, dropped, err := sess.append(req.Rows)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Durability already happened inside append: the batch's WAL record
	// was fsynced before the rows became visible. A full snapshot runs
	// only when the log has accumulated SnapshotEvery records — it
	// compacts the WAL away — or as a fallback when the session has no
	// WAL at all (the pre-WAL snapshot-per-append behavior).
	if sess.wal == nil || sess.wal.Records() >= int64(s.cfg.SnapshotEvery) {
		s.reg.save(sess)
	}
	evicted := s.reg.enforce() // the session grew; re-apply the memory cap
	writeJSON(w, http.StatusOK, map[string]any{
		"rows":            rows,
		"appended":        len(req.Rows),
		"patched_indexes": patched,
		"dropped_indexes": dropped,
		"evicted":         evicted,
	})
}

// ---- Validate and repair -------------------------------------------------

type checkRequest struct {
	// DCs are constraints in the paper's notation, e.g.
	// "not(t.Zip = t'.Zip and t.State != t'.State)".
	DCs []string `json:"dcs"`
	// Approx names the pass/fail semantics: f1 (default), f2, or f3.
	Approx string `json:"approx,omitempty"`
	// Epsilon passes a DC when its loss is at most this (default 0:
	// require no violations).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Path selects the execution path: auto (default, the planner) or
	// scan.
	Path string `json:"path,omitempty"`
	// Workers is the per-DC goroutine count (0 = GOMAXPROCS), capped
	// by the checker at max(32, 4·GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// MaxPairs caps the violating pairs returned per DC; nil defaults
	// to 10, 0 returns none. Counts and losses stay exact regardless.
	MaxPairs *int `json:"max_pairs,omitempty"`
}

type dcVerdict struct {
	DC         string   `json:"dc"`
	OK         bool     `json:"ok"`
	Loss       float64  `json:"loss"`
	LossF1     float64  `json:"loss_f1"`
	LossF2     float64  `json:"loss_f2"`
	LossF3     float64  `json:"loss_f3"`
	Violations int64    `json:"violations"`
	Path       string   `json:"path"`
	Pairs      [][2]int `json:"pairs,omitempty"`
	Truncated  bool     `json:"pairs_truncated,omitempty"`
}

type validateResponse struct {
	Dataset    string      `json:"dataset"`
	Rows       int         `json:"rows"`
	Approx     string      `json:"approx"`
	Epsilon    float64     `json:"epsilon"`
	Clean      bool        `json:"clean"`
	OK         bool        `json:"ok"`
	Violations int64       `json:"violations"`
	DCs        []dcVerdict `json:"dcs"`
	DurationMS float64     `json:"duration_ms"`
}

func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	sess := s.findSession(w, r)
	if sess == nil {
		return
	}
	defer sess.release()
	var req checkRequest
	if !decodeBody(w, r, &req) {
		return
	}
	specs, ok := parseSpecs(w, req.DCs)
	if !ok {
		return
	}
	shown := 10
	if req.MaxPairs != nil {
		shown = *req.MaxPairs
	}
	opts := adc.CheckOptions{Path: req.Path, Workers: req.Workers, MaxPairs: shown}
	if shown <= 0 {
		opts.MaxPairs = 1 // counts stay exact; pairs are dropped below
	}
	approx := req.Approx
	if approx == "" {
		approx = "f1"
	}
	checker, _ := sess.state()
	start := time.Now()
	rep, err := checker.Check(specs, opts)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	verdicts, err := rep.Validations(approx, req.Epsilon)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := validateResponse{
		Dataset:    sess.id,
		Rows:       rep.NumRows,
		Approx:     approx,
		Epsilon:    req.Epsilon,
		Clean:      rep.Clean,
		OK:         true,
		Violations: rep.Violations,
		DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	for k, res := range rep.Results {
		v := dcVerdict{
			DC:         res.Spec.String(),
			OK:         verdicts[k].OK,
			Loss:       verdicts[k].Loss,
			LossF1:     res.LossF1,
			LossF2:     res.LossF2,
			LossF3:     res.LossF3,
			Violations: res.Violations,
			Path:       res.Path,
		}
		if shown > 0 {
			v.Pairs = res.Pairs
			v.Truncated = res.Truncated
		}
		resp.OK = resp.OK && v.OK
		resp.DCs = append(resp.DCs, v)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	sess := s.findSession(w, r)
	if sess == nil {
		return
	}
	defer sess.release()
	var req checkRequest
	if !decodeBody(w, r, &req) {
		return
	}
	specs, ok := parseSpecs(w, req.DCs)
	if !ok {
		return
	}
	checker, _ := sess.state()
	start := time.Now()
	rr, err := checker.Repair(specs, adc.CheckOptions{Path: req.Path, Workers: req.Workers})
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	remove := rr.Remove
	if remove == nil {
		remove = []int{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset":     sess.id,
		"rows":        rr.Report.NumRows,
		"violations":  rr.Report.Violations,
		"remove":      remove,
		"clean_rows":  rr.Clean.NumRows(),
		"duration_ms": float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// ---- Mining jobs ---------------------------------------------------------

type mineRequest struct {
	// Approx, Epsilon, Algorithm, Workers, Evidence, SampleFraction,
	// Alpha, Seed, and MaxPredicates mirror adc.Options. Workers is the
	// enumeration worker count (0 = auto); the mined DC set does not
	// depend on it.
	Approx         string  `json:"approx,omitempty"`
	Epsilon        float64 `json:"epsilon,omitempty"`
	Algorithm      string  `json:"algorithm,omitempty"`
	Workers        int     `json:"workers,omitempty"`
	Evidence       string  `json:"evidence,omitempty"`
	SampleFraction float64 `json:"sample_fraction,omitempty"`
	Alpha          float64 `json:"alpha,omitempty"`
	Seed           int64   `json:"seed,omitempty"`
	MaxPredicates  int     `json:"max_predicates,omitempty"`
}

type mineResult struct {
	DCs        []string `json:"dcs"`
	NumDCs     int      `json:"num_dcs"`
	SampleRows int      `json:"sample_rows"`
	SampleMS   float64  `json:"sample_ms"`
	SpaceMS    float64  `json:"space_ms"`
	EvidenceMS float64  `json:"evidence_ms"`
	EnumMS     float64  `json:"enum_ms"`
	TotalMS    float64  `json:"total_ms"`
	EnumCalls  int64    `json:"enum_calls"`
	LossEvals  int64    `json:"loss_evals"`
	// EvidenceDelta and EvidenceDeltaPairs report incremental evidence
	// maintenance: this mine patched the cached pre-append set in
	// O(delta) pair work instead of rebuilding O(n²) evidence.
	EvidenceDelta      bool  `json:"evidence_delta,omitempty"`
	EvidenceDeltaPairs int64 `json:"evidence_delta_pairs,omitempty"`
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	sess := s.findSession(w, r)
	if sess == nil {
		return
	}
	defer sess.release()
	var req mineRequest
	if !decodeBody(w, r, &req) {
		return
	}
	opts := adc.Options{
		Approx:         req.Approx,
		Epsilon:        req.Epsilon,
		Algorithm:      req.Algorithm,
		Workers:        req.Workers,
		Evidence:       req.Evidence,
		SampleFraction: req.SampleFraction,
		Alpha:          req.Alpha,
		Seed:           req.Seed,
		MaxPredicates:  req.MaxPredicates,
	}
	j := s.jobs.create(sess.id)
	// The goroutine takes its own reference — the handler's is released
	// when the 202 goes out, but the job may run for minutes and must
	// keep the session's mapped memory pinned the whole time.
	go s.runMine(j, sess.acquire(), opts)
	writeJSON(w, http.StatusAccepted, map[string]any{"job": j.id, "dataset": sess.id})
}

// runMine executes a mining job against the session's current state.
// The captured checker and cache stay valid even if an append swaps
// the session forward mid-run; the job then describes the rows it saw.
// A panic anywhere in mining is recovered into a failed job — one bad
// dataset must not take down every session the server holds.
func (s *Server) runMine(j *job, sess *session, opts adc.Options) {
	defer sess.release()
	defer func() {
		if p := recover(); p != nil {
			s.minePanics.Add(1)
			j.finish(nil, fmt.Errorf("mine panicked: %v", p))
		}
	}()
	if mineJobHook != nil {
		mineJobHook(sess.name)
	}
	checker, mineCache := sess.state()
	opts.Cache = mineCache
	// Share the checker's column indexes with evidence construction:
	// a session that has validated (or appended, which patches the
	// store) does not re-index its columns to mine.
	opts.Indexes = checker.Indexes()
	res, err := adc.Mine(checker.Relation(), opts)
	if err != nil {
		j.finish(nil, err)
		return
	}
	sess.observeEvidence(res.EvidenceTime, res.Evidence.Distinct())
	s.delta.observe(res.EvidenceDelta, res.EvidenceDeltaPairs, res.EvidenceDeltaFallback)
	adc.SortDCs(res.DCs)
	out := &mineResult{
		NumDCs:     len(res.DCs),
		SampleRows: res.SampleRows,
		SampleMS:   float64(res.SampleTime) / float64(time.Millisecond),
		SpaceMS:    float64(res.PredicateSpaceTime) / float64(time.Millisecond),
		EvidenceMS: float64(res.EvidenceTime) / float64(time.Millisecond),
		EnumMS:     float64(res.EnumTime) / float64(time.Millisecond),
		TotalMS:    float64(res.Total) / float64(time.Millisecond),
		EnumCalls:  res.EnumCalls,
		LossEvals:  res.LossEvals,

		EvidenceDelta:      res.EvidenceDelta,
		EvidenceDeltaPairs: res.EvidenceDeltaPairs,
	}
	for _, dc := range res.DCs {
		out.DCs = append(out.DCs, dc.String())
	}
	j.finish(out, nil)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.jobs.get(id)
	if j == nil {
		writeErr(w, http.StatusNotFound, "no job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// ---- Health and metrics --------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	sessions, _, _, _, _, _, _ := s.reg.stats()
	degraded := s.reg.degraded()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":          true,
		"uptime_s":    time.Since(s.started).Seconds(),
		"datasets":    sessions,
		"jobs_active": s.jobs.running(),
		// storage_degraded flags sessions serving memory-only after a
		// disk failure (ENOSPC, EIO): still correct, no longer durable.
		"storage_degraded":  degraded > 0,
		"degraded_datasets": degraded,
		"go":                runtime.Version(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	requests, statuses, latency := s.met.snapshot()
	sessions, memBytes, planHits, planMisses, indexHits, indexMisses, evictions := s.reg.stats()
	hitRate := 0.0
	if total := planHits + planMisses + indexHits + indexMisses; total > 0 {
		hitRate = float64(planHits+indexHits) / float64(total)
	}
	// Per-dataset evidence-stage stats: build latency quantiles over
	// this dataset's mining jobs (cache hits included — the histogram
	// shows serving reality) and the latest distinct-set count.
	evidence := make(map[string]evidenceStats)
	live := s.reg.list()
	for _, sess := range live {
		if st, ok := sess.evidenceSnapshot(); ok {
			evidence[sess.id] = st
		}
	}
	releaseAll(live)
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_s": time.Since(s.started).Seconds(),
		"requests": requests,
		"statuses": statuses,
		"latency":  latency,
		"cache": map[string]any{
			"plan_hits":    planHits,
			"plan_misses":  planMisses,
			"index_hits":   indexHits,
			"index_misses": indexMisses,
			"hit_rate":     hitRate,
		},
		"plans": s.reg.planShapes(),
		"sessions": map[string]any{
			"count":     sessions,
			"mem_bytes": memBytes,
			"evictions": evictions,
		},
		"evidence":       evidence,
		"evidence_delta": s.delta.snapshot(),
		"storage":        s.reg.storageStats(),
		"jobs_active":    s.jobs.running(),
		"mine_panics":    s.minePanics.Load(),
	})
}
