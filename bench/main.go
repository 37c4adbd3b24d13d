// Command bench is the repository benchmark. It runs one workload
// against the adc library and an in-process dcserved, checks every
// output, and prints the workload's metrics, by name and unit, ending
// with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; bench.sh builds the binary first):
//
//	bash bench/bench.sh --workload mine --seed 1 --seconds 20 --trace 0
//	bash bench/bench.sh --workload all --seed 7
//
// Workloads are mine, validate, mixed and restart (see README.md), or
// all, which runs each in its own process. With --trace 0 the metrics
// are the end-to-end ones. With --trace 1 every other operation records
// spans around each call into the program, and the metrics are the
// per-layer ones: taken from the window's spans where the window runs
// the layer, and from a short traced probe after the window where it
// does not. The exit status is 0 only when every output check passed.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"adc"
)

const (
	// benchRows is the size of every generated dataset.
	benchRows = 20000
	// setupRepeats is how often each workload sets up; setup_s is the
	// median, so one slow set-up does not move it.
	setupRepeats = 7
)

// env is what a workload runs with.
type env struct {
	seed   int64
	window time.Duration
	rows   int
	tr     *tracer // nil unless --trace 1
	tmp    string  // scratch directory for data directories
}

// tracerFor returns the tracer for a workload's n-th operation (or
// round of operations): in a traced run every other one is traced, so
// the untraced ones measure what tracing costs.
func (e *env) tracerFor(n int) *tracer {
	if n%2 == 0 {
		return e.tr
	}
	return nil
}

// outcome is what a workload measured and checked.
type outcome struct {
	setup     []float64 // seconds, one per set-up
	lat       []float64 // ms, one per untraced operation
	tracedLat []float64 // ms, one per traced operation (--trace 1 only)
	opDesc    string    // what one operation is, for the table
	elapsed   time.Duration

	// gates are window figures only some workloads have, so they cannot
	// be end-to-end metrics; run.sh's report checks them against the
	// bound of op_p50_ms. notes are printed only. Both are reported by
	// untraced runs only.
	gates, notes []row

	// ins and probeMine are what the traced run's probes run on: the
	// workload's own datasets and mining options.
	ins       []*input
	probeMine adc.Options

	checks
}

// addLat records one operation's latency, traced or not.
func (o *outcome) addLat(traced bool, d time.Duration) {
	if traced {
		o.tracedLat = append(o.tracedLat, ms(d))
	} else {
		o.lat = append(o.lat, ms(d))
	}
}

// checks counts attempted operations and failed ones (errors and failed
// output checks alike). Safe for concurrent use.
type checks struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	reasons   []string
}

func (c *checks) attempt(n int64) {
	c.mu.Lock()
	c.attempted += n
	c.mu.Unlock()
}

// fail counts one failed operation and keeps the first few reasons.
func (c *checks) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.reasons) < 10 {
		c.reasons = append(c.reasons, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	name string
	run  func(*env) (*outcome, error)
}

var workloads = []workload{
	{"mine", runMine},
	{"validate", runValidate},
	{"mixed", runMixed},
	{"restart", runRestart},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	rows     int
	spans    string
}

// gatesPrefix starts the line that carries a run's gated window
// figures, printed just before the result line.
const gatesPrefix = "gates "

func main() {
	if len(os.Args) > 1 && os.Args[1] == "report" {
		os.Exit(reportMain(os.Args[2:]))
	}
	cfg := config{rows: benchRows}
	flag.StringVar(&cfg.workload, "workload", "", "mine, validate, mixed, restart, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window (run_seconds of BENCHMARK.json)")
	flag.IntVar(&cfg.trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", "", "with --trace 1, write the spans as JSONL to this file")
	flag.Parse()
	if cfg.trace != 0 && cfg.trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be positive")
		os.Exit(2)
	}
	if cfg.workload == "all" {
		os.Exit(runAll(cfg))
	}
	for _, w := range workloads {
		if w.name == cfg.workload {
			res, err := runWorkload(w, cfg, os.Stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			printResult(os.Stdout, res)
			if !res.Correct {
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want mine, validate, mixed, restart, or all)\n", cfg.workload)
	os.Exit(2)
}

func printResult(w io.Writer, res *result) {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(b))
}

// runWorkload runs one workload in this process, prints its table to w
// and returns the result line.
func runWorkload(w workload, cfg config, out io.Writer) (*result, error) {
	tmp, err := os.MkdirTemp("", "adcbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: cfg.seed, window: time.Duration(cfg.seconds * float64(time.Second)), rows: cfg.rows, tmp: tmp}
	if cfg.trace == 1 {
		e.tr = newTracer()
	}
	o, err := w.run(e)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metric)}
	res.Correct = o.failed == 0 && o.attempted > 0

	fmt.Fprintf(out, "workload %s  seed %d  window %.1fs  rows %d  trace %d\n", w.name, cfg.seed, o.elapsed.Seconds(), cfg.rows, cfg.trace)
	var rows []row
	if cfg.trace == 0 {
		rows, err = endToEnd(o)
	} else {
		rows, err = perLayer(e, o, out, cfg.spans)
	}
	if err != nil {
		if len(o.reasons) > 0 {
			err = fmt.Errorf("%w; %d of %d operations failed, first: %s", err, o.failed, o.attempted, o.reasons[0])
		}
		return nil, err
	}
	for _, r := range rows {
		if math.IsNaN(r.value) || math.IsInf(r.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", r.name, r.value)
		}
		res.Metrics[r.name] = metric{Value: r.value, Unit: r.unit}
		fmt.Fprintf(out, "  %-34s %14.4f %-6s %s\n", r.name, r.value, r.unit, r.desc)
	}
	gates := make(map[string]metric)
	if cfg.trace == 0 {
		for _, g := range o.gates {
			gates[g.name] = metric{Value: g.value, Unit: g.unit}
			fmt.Fprintf(out, "  %-34s %14.4f %-6s %s (gated by run.sh)\n", g.name, g.value, g.unit, g.desc)
		}
		for _, n := range o.notes {
			fmt.Fprintf(out, "  %-34s %14.4f %-6s %s (window only)\n", n.name, n.value, n.unit, n.desc)
		}
	}
	errRate := 0.0
	if o.attempted > 0 {
		errRate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(out, "  %-34s %14.4f %-6s %d failed of %d attempted\n", "error_rate", errRate, "ratio", o.failed, o.attempted)
	for _, r := range o.reasons {
		fmt.Fprintf(out, "  FAILED: %s\n", r)
	}
	b, err := json.Marshal(gates)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s%s\n", gatesPrefix, b)
	return res, nil
}

// row is one printed figure.
type row struct {
	name  string
	value float64
	unit  string
	desc  string
}

// endToEnd derives the metrics a user of the system sees.
func endToEnd(o *outcome) ([]row, error) {
	if len(o.lat) == 0 || len(o.setup) == 0 {
		return nil, errors.New("no operation completed in the window")
	}
	return []row{
		{"setup_s", median(o.setup), "s", fmt.Sprintf("set-up, median of %d", len(o.setup))},
		{"peak_rss_mb", peakRSSMB(), "MB", "peak resident set of this process"},
		{"op_p50_ms", median(o.lat), "ms", fmt.Sprintf("%s, median of %d", o.opDesc, len(o.lat))},
		{"ops_per_s", float64(len(o.lat)) / o.elapsed.Seconds(), "1/s", "completed operations per second of the window"},
	}, nil
}

// peakRSSMB is this process's peak resident set size. Each workload
// runs in its own process, so it belongs to that workload.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runAll runs every workload in its own child process and prints one
// combined result line with metrics named <workload>.<metric>.
func runAll(cfg config) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	all := &result{Correct: true, Metrics: make(map[string]metric)}
	for _, w := range workloads {
		args := []string{"--workload", w.name, "--seed", fmt.Sprint(cfg.seed),
			"--seconds", fmt.Sprint(cfg.seconds), "--trace", fmt.Sprint(cfg.trace)}
		if cfg.spans != "" {
			args = append(args, "--spans", strings.TrimSuffix(cfg.spans, ".jsonl")+"-"+w.name+".jsonl")
		}
		var stdout bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s printed no result (%v)\n", w.name, runErr)
			return 1
		}
		for _, l := range lines[:len(lines)-1] {
			if !strings.HasPrefix(l, gatesPrefix) {
				fmt.Println(l)
			}
		}
		all.Correct = all.Correct && res.Correct && runErr == nil
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[w.name+"."+k] = m
		}
	}
	printResult(os.Stdout, all)
	if !all.Correct {
		return 1
	}
	return 0
}
