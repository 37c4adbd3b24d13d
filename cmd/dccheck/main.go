// Command dccheck applies denial constraints to a CSV file: it reports
// the violating tuple pairs, per-DC approximation losses (f1/f2/f3),
// the dirtiest tuples, and optionally a greedy repair set — the check
// side of the mining pipeline of cmd/adcminer.
//
// Constraints come from -dc flags (paper notation), a -dcs file (one
// constraint per line, # comments), or -mine, which first mines ADCs
// from the input itself and then applies them back.
//
// Usage:
//
//	dccheck -input data.csv -dc "not(t.Zip = t'.Zip and t.State != t'.State)"
//	dccheck -input data.csv -dcs constraints.txt -eps 0.01 -approx f1
//	dccheck -input data.csv -mine -eps 0.001 -repair -json
//	dccheck -input data.csv -dcs c.txt -explain                  # print per-DC query plans
//	dccheck -input data.csv -dcs c.txt -save-snapshot data.adcs  # persist columns + PLIs
//	dccheck -load-snapshot data.adcs -dcs c.txt                  # re-check without ingest
//
// Exit status: 0 when every constraint passes (no violations, or loss ≤
// -eps when set), 1 when at least one fails, 2 on usage or data errors,
// 130 on SIGINT/SIGTERM. Output is buffered; an interrupt flushes
// whatever portion of the report was already produced instead of
// dropping it (the signal handling is shared with dcserved's graceful
// shutdown via internal/sigctx).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"adc"
	"adc/internal/sigctx"
)

type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}

// config carries the parsed flags into the checking goroutine.
type config struct {
	input    string
	loadSnap string
	saveSnap string
	header   bool
	dcFlags  []string
	dcsFile  string
	mine     bool
	fn       string
	eps      float64
	maxPreds int
	seed     int64
	path     string
	workers  int
	maxPairs int
	top      int
	repair   bool
	explain  bool
	asJSON   bool
}

func main() {
	var dcFlags multiFlag
	var cfg config
	flag.StringVar(&cfg.input, "input", "", "input CSV file (required unless -load-snapshot)")
	flag.StringVar(&cfg.loadSnap, "load-snapshot", "", "check a columnar snapshot instead of CSV (skips ingest; reuses saved indexes)")
	flag.StringVar(&cfg.saveSnap, "save-snapshot", "", "after checking, save the relation and built indexes to this snapshot file")
	flag.BoolVar(&cfg.header, "header", true, "first CSV record is the header")
	flag.StringVar(&cfg.dcsFile, "dcs", "", "file of constraints, one per line (# comments)")
	flag.BoolVar(&cfg.mine, "mine", false, "mine ADCs from the input and check those")
	flag.StringVar(&cfg.fn, "approx", "f1", "approximation function deciding pass/fail: f1, f2, or f3")
	flag.Float64Var(&cfg.eps, "eps", 0, "pass a DC when its loss is at most eps (0 = require no violations); also the mining threshold with -mine")
	flag.IntVar(&cfg.maxPreds, "max-preds", 4, "maximum predicates per mined DC (-mine)")
	flag.Int64Var(&cfg.seed, "seed", 1, "mining seed (-mine)")
	flag.StringVar(&cfg.path, "path", "auto", "execution path: auto (per-DC planner) or scan (refutation scan over all pairs)")
	flag.IntVar(&cfg.workers, "workers", 0, "worker goroutines per DC (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.maxPairs, "max-pairs", 10, "violating pairs shown per DC (0 = all)")
	flag.IntVar(&cfg.top, "top", 5, "dirtiest tuples shown (0 = none)")
	flag.BoolVar(&cfg.repair, "repair", false, "compute a greedy repair set")
	flag.BoolVar(&cfg.explain, "explain", false, "print each DC's query plan (shape, join order, estimated vs. examined pairs; a DC counted under -max-pairs examines only the pairs it lists)")
	flag.BoolVar(&cfg.asJSON, "json", false, "emit a JSON report instead of text")
	flag.Var(&dcFlags, "dc", "constraint in paper notation (repeatable)")
	flag.Parse()
	cfg.dcFlags = dcFlags
	if cfg.input == "" && cfg.loadSnap == "" {
		fmt.Fprintln(os.Stderr, "dccheck: -input or -load-snapshot is required")
		flag.Usage()
		os.Exit(2)
	}
	if cfg.input != "" && cfg.loadSnap != "" {
		fmt.Fprintln(os.Stderr, "dccheck: -input and -load-snapshot are mutually exclusive")
		os.Exit(2)
	}

	ctx, stop := sigctx.NotifyContext(context.Background())
	defer stop()

	// The report is buffered and flushed exactly once, whether the run
	// finishes or a signal lands mid-report: without this, an interrupt
	// during a large -json report (for example, piped to a consumer that
	// sends SIGINT once it has seen enough) dropped the buffered tail.
	out := newSyncWriter(os.Stdout)
	done := make(chan int, 1)
	go func() { done <- run(out, cfg) }()

	var code int
	select {
	case code = <-done:
	case <-ctx.Done():
		code = sigctx.ExitCodeInterrupted
	}
	out.Flush()
	os.Exit(code)
}

// syncWriter serializes writes against the final flush so a signal
// arriving mid-report cannot interleave a flush with a partial write.
type syncWriter struct {
	mu sync.Mutex
	w  *bufio.Writer
}

func newSyncWriter(w io.Writer) *syncWriter {
	return &syncWriter{w: bufio.NewWriter(w)}
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func (s *syncWriter) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w.Flush() //nolint:errcheck // exiting either way
}

// run performs the whole check and returns the process exit code.
func run(out io.Writer, cfg config) int {
	var checker *adc.Checker
	if cfg.loadSnap != "" {
		// Attach, not load: columns and any saved indexes alias the
		// mapped file, so a warm snapshot skips both ingest and PLI
		// builds for the constraints it has seen before.
		rel, idx, err := adc.AttachSnapshot(cfg.loadSnap)
		if err != nil {
			return fail(err)
		}
		if checker, err = adc.NewCheckerWithStore(rel, idx); err != nil {
			return fail(err)
		}
	} else {
		rel, err := adc.ReadCSVFile(cfg.input, cfg.header)
		if err != nil {
			return fail(err)
		}
		checker = adc.NewChecker(rel)
	}
	rel := checker.Relation()
	specs, err := gatherSpecs(rel, checker.Indexes(), cfg)
	if err != nil {
		return fail(err)
	}
	if len(specs) == 0 {
		return fail(fmt.Errorf("no constraints to check (use -dc, -dcs, or -mine)"))
	}

	// One pair enumeration serves the report, the verdicts, and the
	// repair: -repair needs the full pair lists, so the display cap is
	// then applied at print time instead of in the checker.
	opts := adc.CheckOptions{Path: cfg.path, Workers: cfg.workers, MaxPairs: cfg.maxPairs}
	if cfg.repair {
		opts.MaxPairs = 0
	}
	rep, err := checker.Check(specs, opts)
	if err != nil {
		return fail(err)
	}
	verdicts, err := rep.Validations(cfg.fn, cfg.eps)
	if err != nil {
		return fail(err)
	}
	if cfg.saveSnap != "" {
		// Persist after the check so the snapshot captures the PLIs
		// this run built; -load-snapshot then starts warm.
		if err := adc.SaveSnapshot(cfg.saveSnap, rel, checker.Indexes()); err != nil {
			return fail(err)
		}
	}
	var rr *adc.RepairResult
	if cfg.repair {
		if rr, err = adc.RepairFromReport(rel, rep); err != nil {
			return fail(err)
		}
	}

	if cfg.asJSON {
		if err := printJSON(out, rep, verdicts, rr, cfg); err != nil {
			return fail(err)
		}
	} else {
		printText(out, rep, verdicts, rr, cfg)
	}
	for _, v := range verdicts {
		if !v.OK {
			return 1
		}
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "dccheck:", err)
	return 2
}

// gatherSpecs collects constraints from every configured source. The
// index store is threaded into -mine so mining reuses — and warms, for
// -save-snapshot — the same PLIs the check itself runs on.
func gatherSpecs(rel *adc.Relation, idx *adc.IndexStore, cfg config) ([]adc.DCSpec, error) {
	specs, err := adc.ParseDCSpecs(cfg.dcFlags)
	if err != nil {
		return nil, err
	}
	if cfg.dcsFile != "" {
		data, err := os.ReadFile(cfg.dcsFile)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			spec, err := adc.ParseDCSpec(line)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", cfg.dcsFile, err)
			}
			specs = append(specs, spec)
		}
	}
	if cfg.mine {
		res, err := adc.Mine(rel, adc.Options{
			Approx:        cfg.fn,
			Epsilon:       cfg.eps,
			MaxPredicates: cfg.maxPreds,
			Seed:          cfg.seed,
			Indexes:       idx,
		})
		if err != nil {
			return nil, err
		}
		adc.SortDCs(res.DCs)
		specs = append(specs, adc.DCSpecs(res.DCs)...)
	}
	return specs, nil
}

// ---- Text report ---------------------------------------------------------

// shownPairs applies the display cap: with -repair the checker keeps
// every pair for the conflict graph, so -max-pairs is enforced here.
func shownPairs(res adc.DCViolations, maxPairs int) ([][2]int, bool) {
	pairs, truncated := res.Pairs, res.Truncated
	if maxPairs > 0 && len(pairs) > maxPairs {
		pairs, truncated = pairs[:maxPairs], true
	}
	return pairs, truncated
}

func printText(out io.Writer, rep *adc.ViolationReport, verdicts []adc.DCValidation, rr *adc.RepairResult, cfg config) {
	fmt.Fprintf(out, "checked %d rows against %d DCs: %d violating pairs, %d dirty tuples (pass: %s loss <= %g)\n",
		rep.NumRows, len(rep.Results), rep.Violations, rep.DirtyTuples(), cfg.fn, cfg.eps)
	for k, res := range rep.Results {
		verdict := "ok  "
		if !verdicts[k].OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(out, "[%s %s=%.4g] %s  (%d pairs via %s)\n",
			verdict, cfg.fn, verdicts[k].Loss, res.Spec, res.Violations, res.Path)
		if cfg.explain && res.Plan != nil {
			fmt.Fprintf(out, "    plan: %s\n", formatPlan(res.Plan))
		}
		if pairs, truncated := shownPairs(res, cfg.maxPairs); len(pairs) > 0 {
			parts := make([]string, len(pairs))
			for i, p := range pairs {
				parts[i] = fmt.Sprintf("(%d,%d)", p[0], p[1])
			}
			suffix := ""
			if truncated {
				suffix = " ..."
			}
			fmt.Fprintf(out, "    %s%s\n", strings.Join(parts, " "), suffix)
		}
	}
	if cfg.top > 0 {
		if dirty := rep.TopViolating(cfg.top); len(dirty) > 0 {
			fmt.Fprintf(out, "dirtiest tuples:")
			for _, tc := range dirty {
				fmt.Fprintf(out, " #%d(%d)", tc.Tuple, tc.Count)
			}
			fmt.Fprintln(out)
		}
	}
	if rr != nil {
		fmt.Fprintf(out, "repair: remove %d of %d tuples: %v\n",
			len(rr.Remove), rep.NumRows, rr.Remove)
	}
}

// formatPlan renders a query plan on one line: the executor shape, the
// equality cascade, the pushed-down order predicate, the residual
// refutation order, and the planner's estimate against what actually
// ran.
func formatPlan(p *adc.PlanExplain) string {
	var b strings.Builder
	b.WriteString(p.Shape)
	if len(p.JoinCols) > 0 {
		fmt.Fprintf(&b, " join[%s]", strings.Join(p.JoinCols, " -> "))
	}
	if p.Range != "" {
		fmt.Fprintf(&b, " range[%s]", p.Range)
	}
	if len(p.Residual) > 0 {
		fmt.Fprintf(&b, " residual[%s]", strings.Join(p.Residual, ", "))
	}
	fmt.Fprintf(&b, " est=%d examined=%d", p.EstPairs, p.ActualPairs)
	return b.String()
}

// ---- JSON report ---------------------------------------------------------

type jsonDC struct {
	DC         string           `json:"dc"`
	Violations int64            `json:"violations"`
	LossF1     float64          `json:"loss_f1"`
	LossF2     float64          `json:"loss_f2"`
	LossF3     float64          `json:"loss_f3"`
	Loss       float64          `json:"loss"`
	OK         bool             `json:"ok"`
	Path       string           `json:"path"`
	Plan       *adc.PlanExplain `json:"plan,omitempty"`
	Pairs      [][2]int         `json:"pairs,omitempty"`
	Truncated  bool             `json:"pairs_truncated,omitempty"`
}

type jsonTuple struct {
	Tuple int   `json:"tuple"`
	Count int64 `json:"count"`
}

type jsonReport struct {
	Rows        int         `json:"rows"`
	TotalPairs  int64       `json:"total_pairs"`
	Approx      string      `json:"approx"`
	Epsilon     float64     `json:"epsilon"`
	Clean       bool        `json:"clean"`
	Violations  int64       `json:"violations"`
	DirtyTuples int         `json:"dirty_tuples"`
	DCs         []jsonDC    `json:"dcs"`
	Dirtiest    []jsonTuple `json:"dirtiest,omitempty"`
	Repair      []int       `json:"repair,omitempty"`
}

func printJSON(w io.Writer, rep *adc.ViolationReport, verdicts []adc.DCValidation, rr *adc.RepairResult, cfg config) error {
	out := jsonReport{
		Rows:        rep.NumRows,
		TotalPairs:  rep.TotalPairs,
		Approx:      cfg.fn,
		Epsilon:     cfg.eps,
		Clean:       rep.Clean,
		Violations:  rep.Violations,
		DirtyTuples: rep.DirtyTuples(),
	}
	for k, res := range rep.Results {
		pairs, truncated := shownPairs(res, cfg.maxPairs)
		dc := jsonDC{
			DC:         res.Spec.String(),
			Violations: res.Violations,
			LossF1:     res.LossF1,
			LossF2:     res.LossF2,
			LossF3:     res.LossF3,
			Loss:       verdicts[k].Loss,
			OK:         verdicts[k].OK,
			Path:       res.Path,
			Pairs:      pairs,
			Truncated:  truncated,
		}
		if cfg.explain {
			dc.Plan = res.Plan
		}
		out.DCs = append(out.DCs, dc)
	}
	if cfg.top > 0 {
		for _, tc := range rep.TopViolating(cfg.top) {
			out.Dirtiest = append(out.Dirtiest, jsonTuple{Tuple: tc.Tuple, Count: tc.Count})
		}
	}
	if rr != nil {
		out.Repair = rr.Remove
		if out.Repair == nil {
			out.Repair = []int{}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
