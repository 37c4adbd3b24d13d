package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"adc"
	"adc/internal/colstore"
	"adc/internal/pli"
	"adc/internal/server"
	"adc/internal/wal"
)

// The per-layer metrics of a traced run are all read off spans: the
// window's, where the workload's window runs the layer, and otherwise
// a probe's. The result line must carry every per-layer metric on every
// workload, so each layer a window bypasses is measured by a probe run
// after the window, which therefore never disturbs the window's
// numbers. There are three probes:
//
//   - mine: one mine job (mineJob) on the workload's first dataset, with
//     the workload's mining options;
//   - server: one restart cycle (restartCycle) on a new durable server;
//   - replay: the direct calls no window makes, on the first dataset:
//     one explained check, a snapshot write, replayBatches four-row
//     batches through Checker.AppendRows and an fsynced wal.Log, then
//     snapshot attach, index restore and log scan.
const replayBatches = 64 // one default SnapshotEvery of log records

// probeMineOpts are the mining probe's options on workloads without a
// mine job of their own: the mine workload's settings on a 2% sample,
// which keeps a probe on tax or hospital to a few seconds.
func probeMineOpts() adc.Options {
	return adc.Options{Approx: "f1", Epsilon: mineEpsilon, SampleFraction: 0.02, MaxPredicates: mineMaxPreds, Seed: sampleSeed}
}

// layerMetric is one per-layer metric: the probe that measures it when
// the window does not, and how to read it off a set of spans.
type layerMetric struct {
	name, unit, desc string
	probe            string
	value            func(spanSet) (float64, bool)
}

var layerMetrics = []layerMetric{
	{"dataset.ingest_ms", "ms", "adc.ReadCSV of the job's CSV", "mine", dur("dataset.ingest")},
	{"sample.ms", "ms", "sampler stage of a mine", "mine", dur("sample")},
	{"sample.rows", "count", "rows mined", "mine", counter("sample", "rows")},
	{"predicate.space_ms", "ms", "predicate-space stage", "mine", dur("predicate.space")},
	{"predicate.count", "count", "predicates in the space", "mine", counter("predicate.space", "predicates")},
	{"evidence.build_ms", "ms", "evidence stage", "mine", dur("evidence")},
	{"evidence.distinct_sets", "count", "distinct evidence sets", "mine", counter("evidence", "distinct")},
	{"evidence.compression", "ratio", "distinct sets per ordered tuple pair", "mine", counter("evidence", "compression")},
	{"hitset.enum_ms", "ms", "enumeration stage, default workers", "mine", dur("hitset")},
	{"hitset.calls", "count", "enumerator recursive calls", "mine", counter("hitset", "calls")},
	{"hitset.loss_evals", "count", "approximation-function evaluations", "mine", counter("hitset", "loss_evals")},
	{"hitset.us_per_loss_eval", "us", "enumeration time per loss evaluation", "mine",
		each("hitset", func(_ spanSet, r spanRec) (float64, bool) {
			n := r.Counters["loss_evals"]
			return float64(r.DurNS) / 1e3 / n, n > 0
		})},
	{"hitset.dcs_per_call", "ratio", "DCs found per enumerator call", "mine",
		each("hitset", func(_ spanSet, r spanRec) (float64, bool) {
			n := r.Counters["calls"]
			return r.Counters["dcs"] / n, n > 0
		})},
	{"violation.check_p50_ms", "ms", "check time a validate reports (duration_ms)", "server", dur("violation.check")},
	{"violation.first_check_ms", "ms", "first check of a dataset after a restart (duration_ms)", "server", dur("violation.first_check")},
	{"violation.examined_per_violation", "ratio", "candidate pairs examined per violating pair", "replay", counter("violation.explain", "examined_per_violation")},
	{"violation.est_error", "log10", "planner estimate vs examined pairs, mean |log10| per DC", "replay", counter("violation.explain", "est_error")},
	{"violation.append_rows_ms", "ms", "Checker.AppendRows of a 4-row batch", "replay", dur("violation.append_rows")},
	{"pli.patched_ratio", "ratio", "indexes an append patched rather than dropped", "replay",
		each("violation.append_rows", func(_ spanSet, r spanRec) (float64, bool) {
			n := r.Counters["patched"] + r.Counters["dropped"]
			return r.Counters["patched"] / n, n > 0
		})},
	{"pli.restore_ms", "ms", "pli.RestoreStore of an attached snapshot", "replay", dur("pli.restore")},
	{"wal.append_ms", "ms", "wal.Log.Append of a 4-row batch, fsync on", "replay", dur("wal.append")},
	{"wal.bytes_per_user_byte", "ratio", "log bytes per CSV byte appended", "replay", counter("wal.append", "bytes_per_user_byte")},
	{"wal.scan_ms", "ms", "wal.Scan of the replayed log", "replay", dur("wal.scan")},
	{"colstore.write_ms", "ms", "adc.SaveSnapshot with warm indexes", "replay", dur("colstore.write")},
	{"colstore.bytes_per_csv_byte", "ratio", "snapshot bytes per CSV byte", "replay", counter("colstore.write", "bytes_per_csv_byte")},
	{"colstore.attach_ms", "ms", "colstore.Attach of the snapshot", "replay", dur("colstore.attach")},
	{"server.register_ms", "ms", "POST /datasets text/csv, durable, route time", "server", dur("server.register")},
	{"server.route_p50_ms", "ms", "validate route time", "server", dur("server.validate")},
	{"server.handler_overhead_ms", "ms", "validate route time minus its check", "server", self("server.validate")},
	{"server.append_ms", "ms", "append route time, durable", "server", dur("server.append")},
	{"server.startup_ms", "ms", "server.New on a data directory", "server", dur("server.startup")},
	{"server.session_restore_ms", "ms", "first validate's route time minus its check: attach and log replay", "server", self("server.first_validate")},
}

// spanSet indexes spans by name, with each span's self time.
type spanSet struct {
	byName map[string][]spanRec
	self   map[int64]int64
}

func newSpanSet(spans []spanRec) spanSet {
	s := spanSet{byName: make(map[string][]spanRec), self: selfTimes(spans)}
	for _, r := range spans {
		s.byName[r.Name] = append(s.byName[r.Name], r)
	}
	return s
}

// each reads a metric as the median, over the spans named name, of
// what f returns for each span it accepts.
func each(name string, f func(spanSet, spanRec) (float64, bool)) func(spanSet) (float64, bool) {
	return func(s spanSet) (float64, bool) {
		var xs []float64
		for _, r := range s.byName[name] {
			if v, ok := f(s, r); ok {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return 0, false
		}
		return median(xs), true
	}
}

func dur(name string) func(spanSet) (float64, bool) {
	return each(name, func(_ spanSet, r spanRec) (float64, bool) { return float64(r.DurNS) / 1e6, true })
}

func self(name string) func(spanSet) (float64, bool) {
	return each(name, func(s spanSet, r spanRec) (float64, bool) { return float64(s.self[r.SpanID]) / 1e6, true })
}

func counter(name, key string) func(spanSet) (float64, bool) {
	return each(name, func(_ spanSet, r spanRec) (float64, bool) {
		v, ok := r.Counters[key]
		return v, ok
	})
}

// perLayer summarizes the window's spans, runs the probes the window
// leaves necessary, and reads every per-layer metric.
func perLayer(e *env, o *outcome, out io.Writer, spansPath string) ([]row, error) {
	spans := e.tr.snapshot()
	sum := summarize(spans)
	printLayerTable(out, sum)
	if sum.rootNS == 0 {
		return nil, errors.New("the window recorded no spans")
	}
	if len(o.lat) == 0 || len(o.tracedLat) == 0 {
		return nil, errors.New("the window needs a traced and an untraced operation")
	}
	overhead := median(o.tracedLat)/median(o.lat) - 1
	rows := []row{
		{"trace.coverage", sum.coverage, "ratio", "share of operation time inside layer spans"},
		{"trace.overhead_pct", 100 * overhead, "%", fmt.Sprintf("median of %d traced operations over median of %d untraced, minus 1",
			len(o.tracedLat), len(o.lat))},
	}

	window := newSpanSet(spans)
	probes := make(map[string]bool)
	for _, m := range layerMetrics {
		if _, ok := m.value(window); !ok {
			probes[m.probe] = true
		}
	}
	for _, p := range []string{"mine", "server", "replay"} {
		if probes[p] {
			if err := runProbe(e, o, p); err != nil {
				return nil, fmt.Errorf("%s probe: %w", p, err)
			}
		}
	}
	all := e.tr.snapshot()
	probed := newSpanSet(all[len(spans):])
	for _, m := range layerMetrics {
		v, ok := m.value(window)
		from := "window"
		if !ok {
			v, ok = m.value(probed)
			from = m.probe + " probe"
		}
		if !ok {
			return nil, fmt.Errorf("no span gives %s", m.name)
		}
		rows = append(rows, row{m.name, v, m.unit, m.desc + " (" + from + ")"})
	}
	if spansPath != "" {
		if err := writeJSONL(spansPath, all); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return rows, nil
}

func runProbe(e *env, o *outcome, probe string) error {
	switch probe {
	case "mine":
		_, _, err := mineJob(e.tr, o.ins[0], o.probeMine)
		return err
	case "server":
		dir, err := os.MkdirTemp(e.tmp, "probe-")
		if err != nil {
			return err
		}
		a, err := newAPI(server.Config{DataDir: dir})
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(subSeed(e.seed, 300)))
		appends := make([][][][]string, len(o.ins))
		for k, in := range o.ins {
			appends[k] = batches(in.rel, restartBatches, appendSize, rng)
		}
		_, _, _, err = restartCycle(e.tr, a, dir, o.ins, appends)
		return err
	default:
		return replay(e, o.ins[0])
	}
}

// replay makes the direct calls into the storage and append layers
// that no window makes, recording a span around each.
func replay(e *env, in *input) error {
	root := e.tr.root("probe.replay")
	defer root.end(nil)
	dir, err := os.MkdirTemp(e.tmp, "replay-")
	if err != nil {
		return err
	}
	var specs []adc.DCSpec
	for _, dc := range in.dcs {
		spec, err := adc.ParseDCSpec(dc)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
	}
	opts := adc.CheckOptions{MaxPairs: validateMaxPairs}

	// The first check builds the indexes and plans; the second is the
	// one explained.
	ck := adc.NewChecker(in.rel)
	if _, err := ck.Check(specs, opts); err != nil {
		return err
	}
	sp := root.child("violation.explain")
	rep, err := ck.Check(specs, opts)
	if err != nil {
		sp.end(nil)
		return err
	}
	var examined, violations int64
	var estErr float64
	for _, res := range rep.Results {
		examined += res.Plan.ActualPairs
		violations += res.Violations
		estErr += math.Abs(math.Log10(float64(res.Plan.EstPairs+1) / float64(res.Plan.ActualPairs+1)))
	}
	sp.end(map[string]float64{
		"examined_per_violation": float64(examined) / float64(max(violations, 1)),
		"est_error":              estErr / float64(len(rep.Results)),
	})

	snapPath := filepath.Join(dir, in.name+".adcs")
	sp = root.child("colstore.write")
	err = adc.SaveSnapshot(snapPath, in.rel, ck.Indexes())
	var fi os.FileInfo
	if err == nil {
		fi, err = os.Stat(snapPath)
	}
	if err != nil {
		sp.end(nil)
		return err
	}
	sp.end(map[string]float64{"bytes_per_csv_byte": float64(fi.Size()) / float64(len(in.csv))})

	walPath := filepath.Join(dir, in.name+".adcw")
	log, _, err := wal.Open(nil, walPath, wal.Options{})
	if err != nil {
		return err
	}
	cur := ck
	rng := rand.New(rand.NewSource(subSeed(e.seed, 400)))
	for _, b := range batches(in.rel, replayBatches, appendSize, rng) {
		sp := root.child("violation.append_rows")
		next, patched, dropped, err := cur.AppendRows(b)
		sp.end(map[string]float64{"patched": float64(patched), "dropped": float64(dropped)})
		if err != nil {
			log.Close()
			return err
		}
		before := log.Bytes()
		sp = root.child("wal.append")
		err = log.Append(cur.Relation().NumRows(), b)
		sp.end(map[string]float64{"bytes_per_user_byte": float64(log.Bytes()-before) / float64(csvBytes(b))})
		if err != nil {
			log.Close()
			return err
		}
		cur = next
	}
	if err := log.Close(); err != nil {
		return err
	}

	sp = root.child("colstore.attach")
	snap, err := colstore.Attach(snapPath)
	sp.end(nil)
	if err != nil {
		return err
	}
	sp = root.child("pli.restore")
	_, err = pli.RestoreStore(snap.Relation.Columns, snap.Indexes)
	sp.end(nil)
	if cerr := snap.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	sp = root.child("wal.scan")
	_, err = wal.Scan(nil, walPath)
	sp.end(nil)
	return err
}
