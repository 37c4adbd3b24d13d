package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"adc"
)

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(xs[:200], 0.95); err != nil || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got, want := quartileSpread([]float64{2, 1}), (2.25-0.75)/1.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread of two = %v, want %v", got, want)
	}
}

// declaredMetrics reads the metric names and units BENCHMARK.json
// declares.
func declaredMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestWorkloadsSmoke runs every workload at toy scale, untraced and
// traced, and checks the output as run.sh's report reads it, and the
// spans.
func TestWorkloadsSmoke(t *testing.T) {
	endToEnd, perLayer := declaredMetrics(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for trace, want := range []map[string]string{endToEnd, perLayer} {
				dir := t.TempDir()
				spans := filepath.Join(dir, "spans.jsonl")
				cfg := config{workload: w.name, seed: 3, seconds: 1, trace: trace, rows: 300, spans: spans}
				var out bytes.Buffer
				res, err := runWorkload(w, cfg, &out)
				if err != nil {
					t.Fatalf("trace %d: %v", trace, err)
				}
				printResult(&out, res)
				path := filepath.Join(dir, w.name+"-3.out")
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				res2, gates, err := readRun(path)
				if err != nil {
					t.Fatalf("trace %d: %v", trace, err)
				}
				if trace == 0 && w.name != "mine" && len(gates) == 0 {
					t.Errorf("trace 0: no gated window figures")
				}
				res = &res2
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace %d: correct %v, %d of %d failed", trace, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %d: %d metrics, BENCHMARK.json declares %d", trace, len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("trace %d: metric %s = %+v (present %v), want unit %s", trace, name, m, ok, unit)
					}
				}
				if trace == 1 {
					checkSpans(t, spans)
				}
			}
		})
	}
}

// checkSpans parses the JSONL and checks that every parent resolves
// within its trace and every self time is non-negative.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []spanRec
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanRec
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	trace := make(map[int64]int64, len(spans))
	for _, s := range spans {
		trace[s.SpanID] = s.TraceID
	}
	for _, s := range spans {
		if s.ParentID == 0 {
			if s.TraceID != s.SpanID {
				t.Errorf("root span %d has trace %d", s.SpanID, s.TraceID)
			}
			continue
		}
		if pt, ok := trace[s.ParentID]; !ok || pt != s.TraceID {
			t.Errorf("span %d (%s): parent %d not in trace %d", s.SpanID, s.Name, s.ParentID, s.TraceID)
		}
	}
	for id, self := range selfTimes(spans) {
		if self < 0 {
			t.Errorf("span %d has self time %d", id, self)
		}
	}
}

// TestOracleMatchesScan pins the benchmark's oracle to the library's
// refutation scan on every golden DC the workloads check.
func TestOracleMatchesScan(t *testing.T) {
	ins, err := genInputs(5, 400, "tax", "hospital", "adult", "stock")
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		for _, dc := range in.dcs {
			got, err := countViolations(in.rel, dc)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := adc.ParseDCSpec(dc)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := adc.Violations(in.rel, []adc.DCSpec{spec}, adc.CheckOptions{Path: adc.ScanPath, MaxPairs: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got != rep.Violations {
				t.Errorf("%s %s: oracle %d, scan %d", in.name, dc, got, rep.Violations)
			}
		}
	}
}
