package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// benchSpec is the part of BENCHMARK.json the report reads.
type benchSpec struct {
	EndToEnd []gate `json:"end_to_end"`
}

// gate is a metric the report checks, with the share of its median by
// which it may get worse.
type gate struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// setRuns is one set of runs: per workload, per metric, one value per
// run.
type setRuns map[string]map[string][]float64

// reportMain summarizes sets of runs written by run.sh (a directory per
// set, one stdout file per run named <workload>-<seed>.out) and checks
// them against BENCHMARK.json. It checks every end-to-end metric with
// its bound, and every gated window figure (the gates line of a run:
// validate and append tails, registration) with the bound of op_p50_ms,
// lower being better. Within a set, a metric whose quartile spread is
// over its bound is unresolved; across sets, a metric whose median
// moved from the first set's by more than its bound, either way,
// disagrees. The exit status is 1 if any metric is either.
func reportMain(args []string) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	record := fs.String("record", "", "append one line of medians over all sets to this trajectory file")
	commit := fs.String("commit", "", "commit recorded with -record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 2 {
		fmt.Fprintln(os.Stderr, "usage: bench report [-record file -commit id] BENCHMARK.json setdir...")
		return 2
	}
	var spec benchSpec
	if err := readJSON(fs.Arg(0), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		return 2
	}
	gateBound := math.NaN()
	for _, m := range spec.EndToEnd {
		if m.Name == "op_p50_ms" {
			gateBound = m.Bound
		}
	}
	if math.IsNaN(gateBound) {
		fmt.Fprintln(os.Stderr, "report: BENCHMARK.json declares no op_p50_ms")
		return 2
	}
	var sets []setRuns
	for _, dir := range fs.Args()[1:] {
		s, err := readSet(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			return 2
		}
		sets = append(sets, s)
	}
	// gatesOf lists what is checked on a workload: the end-to-end
	// metrics, then its gated window figures.
	gatesOf := func(w string) []gate {
		gs := spec.EndToEnd
		for _, name := range sortedKeys(sets[0][w]) {
			if !declared(spec, name) {
				gs = append(gs, gate{Name: name, Better: "lower", Bound: gateBound})
			}
		}
		return gs
	}

	ok := true
	for k, s := range sets {
		fmt.Printf("set %d (%s)\n", k+1, fs.Arg(k+1))
		fmt.Printf("  %-10s %-22s %5s %12s %9s %7s\n", "workload", "metric", "runs", "median", "IQR/med", "bound")
		for _, w := range sortedKeys(sets[0]) {
			for _, g := range gatesOf(w) {
				vals := s[w][g.Name]
				if len(vals) == 0 {
					fmt.Printf("  %-10s %-22s missing\n", w, g.Name)
					ok = false
					continue
				}
				spread := quartileSpread(vals)
				flagTxt := ""
				if spread > g.Bound {
					flagTxt = "  UNRESOLVED: spread over bound"
					ok = false
				}
				fmt.Printf("  %-10s %-22s %5d %12.4f %8.1f%% %6.0f%%%s\n", w, g.Name, len(vals), median(vals), 100*spread, 100*g.Bound, flagTxt)
			}
		}
	}
	for k := 1; k < len(sets); k++ {
		fmt.Printf("set %d against set 1: change of the median, positive is worse\n", k+1)
		for _, w := range sortedKeys(sets[0]) {
			for _, g := range gatesOf(w) {
				a, b := sets[0][w][g.Name], sets[k][w][g.Name]
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				worse := (median(b) - median(a)) / median(a)
				if g.Better == "higher" {
					worse = -worse
				}
				flagTxt := ""
				if math.Abs(worse) > g.Bound {
					flagTxt = "  DISAGREE: moved more than the bound"
					ok = false
				}
				fmt.Printf("  %-10s %-22s %+7.1f%% (bound %.0f%%)%s\n", w, g.Name, 100*worse, 100*g.Bound, flagTxt)
			}
		}
	}
	if *record != "" {
		if err := appendTrajectory(*record, *commit, sets); err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func declared(spec benchSpec, name string) bool {
	for _, m := range spec.EndToEnd {
		if m.Name == name {
			return true
		}
	}
	return false
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// readSet reads every run of a set directory: the result line and the
// gates line of each <workload>-<seed>.out.
func readSet(dir string) (setRuns, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.out"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no runs", dir)
	}
	s := make(setRuns)
	for _, path := range files {
		w, _, _ := strings.Cut(filepath.Base(path), "-")
		res, gates, err := readRun(path)
		if err != nil {
			return nil, err
		}
		if !res.Correct {
			return nil, fmt.Errorf("%s: the run failed its checks", path)
		}
		if s[w] == nil {
			s[w] = make(map[string][]float64)
		}
		for name, m := range res.Metrics {
			s[w][name] = append(s[w][name], m.Value)
		}
		for name, m := range gates {
			s[w][name] = append(s[w][name], m.Value)
		}
	}
	return s, nil
}

// readRun parses one run's stdout: its last line is the result, and the
// line starting with gatesPrefix holds the gated window figures.
func readRun(path string) (result, map[string]metric, error) {
	var res result
	var gates map[string]metric
	f, err := os.Open(path)
	if err != nil {
		return res, nil, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		last = sc.Text()
		if g, ok := strings.CutPrefix(last, gatesPrefix); ok {
			if err := json.Unmarshal([]byte(g), &gates); err != nil {
				return res, nil, fmt.Errorf("%s: gates: %w", path, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return res, nil, err
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, nil, fmt.Errorf("%s: result: %w", path, err)
	}
	return res, gates, nil
}

// appendTrajectory appends one line: the commit, the date and, per
// workload and metric, the median over every run of every set.
func appendTrajectory(path, commit string, sets []setRuns) error {
	all := make(setRuns)
	for _, s := range sets {
		for w, ms := range s {
			if all[w] == nil {
				all[w] = make(map[string][]float64)
			}
			for m, vals := range ms {
				all[w][m] = append(all[w][m], vals...)
			}
		}
	}
	medians := make(map[string]map[string]float64)
	runs := 0
	for w, ms := range all {
		medians[w] = make(map[string]float64)
		for m, vals := range ms {
			medians[w][m] = median(vals)
		}
		runs += len(ms["setup_s"])
	}
	line, err := json.Marshal(map[string]any{
		"commit":  commit,
		"date":    time.Now().UTC().Format("2006-01-02"),
		"runs":    runs,
		"medians": medians,
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
