// Package violation applies denial constraints back to a relation — the
// check side of the data-cleaning story that package hitset's mining is
// the discovery side of. Given a relation and a set of DCs (mined or
// user-supplied DCSpecs), it finds the violating ordered tuple pairs,
// computes per-tuple violation counts and per-DC approximation losses
// under the paper's f1/f2/f3 semantics (Section 5), and derives a
// greedy repair set: the tuples to delete so that every constraint
// holds.
//
// The losses need only a DC's violation count and per-tuple counts.
// So a check that caps its pair list (Options.MaxPairs > 0) counts a
// countable DC instead of visiting each violating pair: rows are
// grouped by the DC's same-attribute equalities, each tuple's
// violations follow in closed form within its group (the partition
// counting of TANE's g1/g2/g3 errors; for two order predicates, the
// sort-and-Fenwick dominance counting behind IEJoin), and only the
// first MaxPairs pairs are materialized. A DC is countable when the
// predicates left after the grouping are none, same-attribute ≠ only,
// or one or two same-attribute order comparisons (count.go). Every
// other DC, every uncapped check (MaxPairs 0, as Repair needs), and
// the forced scan enumerate.
//
// Enumeration runs the plan a greedy cost-ordered planner chooses:
// predicate selectivities are estimated from PLI column statistics
// (cluster counts, rank cardinalities — pli.ColStats, no index build
// required), cross-tuple predicates are ordered by estimated
// cost-to-refute, and the cheapest of three executor shapes runs:
//
//   - The PLI join shapes (eqjoin, crossjoin) cascade the DC's
//     cross-tuple equality predicates into a position-list-index
//     cluster-intersection join (package pli, the same machinery behind
//     the evidence builder), most selective equality first, so
//     only pairs inside intersected clusters are ever examined; an
//     order predicate in the residual is pushed into binary-searched
//     per-group probes. Wins whenever equality predicates are selective
//     — functional-dependency-shaped DCs, keys.
//   - The range shape answers the DC's most selective order predicate
//     (<, ≤, >, ≥) from the sorted numeric PLI: each probe row's
//     qualifying partners are one contiguous slice of the build
//     column's value-ordered rows, found by binary search, with only
//     residual predicates evaluated per candidate. Wins on
//     order-dominated DCs.
//   - The scan shape is a sharded, goroutine-parallel refutation scan
//     over all ordered pairs with most-selective-first early exit per
//     predicate — the general-case floor.
//
// The chosen plan is explicit: DCResult.Plan records the shape, join
// cascade, pushed-down range predicate, residual order, and estimated
// vs. actually-evaluated pairs (dccheck -explain prints it); a counted
// DC reports the plan enumeration would run. Options.Path can force
// the scan, which is the oracle: tests run every executor and the count
// phase against it and against the O(n²·|P|) reference of
// predicate.DC.ViolatingPairs, and all produce identical results.
package violation

import (
	"container/heap"
	"fmt"
	"math"
	"slices"

	"adc/internal/approx"
	"adc/internal/dataset"
	"adc/internal/predicate"
)

// Execution path names. Options.Path accepts PathAuto and PathScan;
// DCResult.Path reports PathPLI, PathRange, or PathScan.
const (
	// PathAuto lets the greedy cost-ordered planner choose per DC.
	PathAuto = "auto"
	// PathScan is the refutation scan over all ordered pairs.
	PathScan = "scan"
	// PathPLI is the cluster-intersection join (both join shapes) and
	// PathRange the sorted-rank range probe, chosen by the planner.
	PathPLI   = "pli"
	PathRange = "range"
)

// Options configures a check run. The zero value chooses the execution
// path per DC, uses GOMAXPROCS workers, and records every violating
// pair.
type Options struct {
	// Path selects the execution: "auto" (default) lets the per-DC
	// greedy planner choose; "scan" forces the refutation scan, the
	// reference every other executor must agree with.
	Path string
	// Workers is the number of goroutines per DC; 0 means GOMAXPROCS.
	// It is capped at max(32, 4·GOMAXPROCS) (par.Clamp) and at the row
	// count.
	Workers int
	// MaxPairs caps the violating pairs recorded per DC in the report:
	// the lexicographically smallest MaxPairs pairs are kept, and memory
	// for them stays O(Workers·MaxPairs) however dirty the relation is;
	// 0 keeps all. With a cap, a countable DC is counted rather than
	// enumerated (see the package comment). Violation counts, tuple
	// counts, and losses are always exact regardless of the cap.
	MaxPairs int
}

func (o Options) validate() error {
	if o.MaxPairs < 0 {
		// A negative cap would slip past both branches of collector.add
		// (neither "uncapped" nor ever reaching the cap) and silently
		// degrade to an unbounded sorted-insertion pair list.
		return fmt.Errorf("violation: negative MaxPairs %d (use 0 to keep all pairs)", o.MaxPairs)
	}
	switch o.Path {
	case "", PathAuto, PathScan:
		return nil
	}
	return fmt.Errorf("violation: unknown path %q (want auto or scan)", o.Path)
}

// DCResult is the violation report of one denial constraint.
type DCResult struct {
	// Spec is the checked constraint.
	Spec predicate.DCSpec
	// Violations is the number of ordered tuple pairs (i, j), i ≠ j,
	// violating the DC — the numerator of the paper's f1.
	Violations int64
	// Pairs lists the violating ordered pairs in lexicographic order,
	// truncated to Options.MaxPairs when set.
	Pairs [][2]int
	// Truncated reports whether Pairs was capped.
	Truncated bool
	// TupleCounts[t] is the number of violating ordered pairs tuple t
	// participates in (each pair counts toward both endpoints, matching
	// the evidence set's vios structure).
	TupleCounts []int64
	// LossF1, LossF2, LossF3 are 1 − f(D, Sϕ) under the three built-in
	// approximation semantics: violating-pair fraction, violating-tuple
	// fraction, and greedy-repair fraction (Figure 2).
	LossF1, LossF2, LossF3 float64
	// Path records the execution path that ran ("pli", "range", or
	// "scan").
	Path string
	// Plan is the executed query plan: shape, join cascade, pushed-down
	// range predicate, residual order, and estimated vs. examined
	// candidate pairs.
	Plan *PlanExplain
}

// Report is the outcome of checking a set of DCs against a relation.
type Report struct {
	// NumRows is |D|; TotalPairs is |D|·(|D|−1), the f1 denominator.
	NumRows    int
	TotalPairs int64
	// Results holds one entry per input DC, in input order.
	Results []DCResult
	// Violations is the total violating ordered pairs across all DCs.
	Violations int64
	// TupleViolations[t] sums tuple t's participation across all DCs.
	TupleViolations []int64
	// Clean reports whether no DC had any violation.
	Clean bool
}

// DirtyTuples returns the number of tuples involved in at least one
// violation of any checked DC.
func (r *Report) DirtyTuples() int {
	n := 0
	for _, c := range r.TupleViolations {
		if c > 0 {
			n++
		}
	}
	return n
}

// TupleCount pairs a tuple index with its violation participation.
type TupleCount struct {
	Tuple int
	Count int64
}

// TopViolating returns the k dirtiest tuples (by aggregate participation,
// ties by index), for triage displays. k ≤ 0 returns all dirty tuples.
func (r *Report) TopViolating(k int) []TupleCount {
	out := sortedTupleCounts(r.TupleViolations)
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// sortedTupleCounts lists the tuples with nonzero counts in greedy
// order: count descending, ties toward the smaller index.
func sortedTupleCounts(counts []int64) []TupleCount {
	out := make([]TupleCount, 0)
	for t, c := range counts {
		if c > 0 {
			out = append(out, TupleCount{Tuple: t, Count: c})
		}
	}
	slices.SortFunc(out, func(a, b TupleCount) int {
		if a.Count != b.Count {
			if a.Count > b.Count {
				return -1
			}
			return 1
		}
		return a.Tuple - b.Tuple
	})
	return out
}

// Check finds the violations of every DC against the relation and
// scores each DC under f1, f2, and f3; a capped check counts each
// countable DC instead of enumerating it. It runs on a throwaway Checker;
// callers issuing repeated checks against one relation should hold a
// Checker instead and amortize index and plan construction.
func Check(rel *dataset.Relation, specs []predicate.DCSpec, opts Options) (*Report, error) {
	if rel == nil {
		return nil, fmt.Errorf("violation: nil relation")
	}
	return NewChecker(rel).Check(specs, opts)
}

// lossF1 is the violating-pair fraction (Kivinen–Mannila g1).
func lossF1(violations, totalPairs int64) float64 {
	if totalPairs == 0 {
		return 0
	}
	return float64(violations) / float64(totalPairs)
}

// lossF2 is the fraction of tuples involved in at least one violation
// (Kivinen–Mannila g2).
func lossF2(counts []int64, n int) float64 {
	if n == 0 {
		return 0
	}
	involved := 0
	for _, c := range counts {
		if c > 0 {
			involved++
		}
	}
	return float64(involved) / float64(n)
}

// lossF3 is approx.GreedyF3's loss, the greedy stand-in for the
// cardinality-repair fraction (Figure 2), over the involved tuples'
// participation counts.
func lossF3(counts []int64, violations int64, n int) float64 {
	if violations == 0 {
		return 0
	}
	k := 0
	for _, c := range counts {
		if c > 0 {
			k++
		}
	}
	involved := make([]int64, 0, k)
	for _, c := range counts {
		if c > 0 {
			involved = append(involved, c)
		}
	}
	return approx.GreedyF3{}.TupleLoss(involved, violations, n)
}

// Validation is the verdict of one DC under a chosen approximation
// function and threshold.
type Validation struct {
	Spec predicate.DCSpec
	// Loss is 1 − f(D, Sϕ) under the chosen function.
	Loss float64
	// Violations is the violating ordered-pair count.
	Violations int64
	// OK reports Loss ≤ eps: the DC is an ε-approximate constraint of
	// the relation (Definition 4.4); with eps 0, a valid DC.
	OK bool
	// Path records the execution path used.
	Path string
}

// Validate scores every DC against the relation and compares the loss
// under the named approximation function ("f1", "f2", or "f3") to eps.
// A verdict needs no pairs, so Options.MaxPairs is ignored.
func Validate(rel *dataset.Relation, specs []predicate.DCSpec, approxName string, eps float64, opts Options) ([]Validation, error) {
	if rel == nil {
		return nil, fmt.Errorf("violation: nil relation")
	}
	return NewChecker(rel).Validate(specs, approxName, eps, opts)
}

// Validations derives per-DC verdicts from an already-computed report,
// avoiding a second pair enumeration: losses under every function are
// part of each DCResult.
func (r *Report) Validations(approxName string, eps float64) ([]Validation, error) {
	if eps < 0 || math.IsNaN(eps) {
		return nil, fmt.Errorf("violation: epsilon %v is negative or NaN", eps)
	}
	pick, err := lossPicker(approxName)
	if err != nil {
		return nil, err
	}
	out := make([]Validation, len(r.Results))
	for k, res := range r.Results {
		loss := pick(res)
		out[k] = Validation{
			Spec:       res.Spec,
			Loss:       loss,
			Violations: res.Violations,
			OK:         loss <= eps,
			Path:       res.Path,
		}
	}
	return out, nil
}

func lossPicker(name string) (func(DCResult) float64, error) {
	switch name {
	case "", "f1":
		return func(r DCResult) float64 { return r.LossF1 }, nil
	case "f2":
		return func(r DCResult) float64 { return r.LossF2 }, nil
	case "f3", "f3-greedy":
		return func(r DCResult) float64 { return r.LossF3 }, nil
	}
	return nil, fmt.Errorf("violation: unknown approximation function %q (want f1, f2, or f3)", name)
}

// RepairResult is a greedy repair: the tuples whose deletion satisfies
// every checked DC, and the repaired relation.
type RepairResult struct {
	// Report is the pre-repair violation report.
	Report *Report
	// Remove lists the tuple indexes to delete, ascending.
	Remove []int
	// Clean is the relation with the Remove tuples deleted (original
	// order otherwise preserved).
	Clean *dataset.Relation
}

// Repair computes a greedy repair set over the union conflict graph of
// all DCs (Section 5's stand-in for the NP-hard cardinality repair):
// repeatedly delete the tuple incident to the most unresolved conflict
// edges until none remain. Deleting the returned tuples satisfies every
// DC, since denial constraints are anti-monotone under tuple deletion.
func Repair(rel *dataset.Relation, specs []predicate.DCSpec, opts Options) (*RepairResult, error) {
	opts.MaxPairs = 0 // the conflict graph needs every pair
	rep, err := Check(rel, specs, opts)
	if err != nil {
		return nil, err
	}
	return RepairReport(rel, rep)
}

// RepairReport computes the greedy repair from an already-computed
// report of the relation, avoiding a second pair enumeration. The
// report must have been built with MaxPairs 0: a truncated pair list
// cannot seed the conflict graph.
func RepairReport(rel *dataset.Relation, rep *Report) (*RepairResult, error) {
	for _, res := range rep.Results {
		if res.Truncated {
			return nil, fmt.Errorf("violation: cannot repair from a report with truncated pairs (DC %s); re-check with MaxPairs 0", res.Spec)
		}
	}
	n := rep.NumRows

	// Union conflict graph: an undirected edge per conflicting tuple
	// pair, deduplicated across orders and DCs.
	adj := make([]map[int]struct{}, n)
	deg := make([]int, n)
	edges := 0
	for _, res := range rep.Results {
		for _, p := range res.Pairs {
			a, b := p[0], p[1]
			if a > b {
				a, b = b, a
			}
			if adj[a] == nil {
				adj[a] = make(map[int]struct{})
			}
			if _, ok := adj[a][b]; ok {
				continue
			}
			if adj[b] == nil {
				adj[b] = make(map[int]struct{})
			}
			adj[a][b] = struct{}{}
			adj[b][a] = struct{}{}
			deg[a]++
			deg[b]++
			edges++
		}
	}

	// Greedy peel via a lazy max-heap over (degree, tuple): entries go
	// stale when a neighbor's removal lowers a degree, and are skipped on
	// pop; each decrement pushes one fresh entry, so the whole peel is
	// O(E log E) instead of rescanning all n tuples per removal. Ordering
	// (degree desc, tuple asc) keeps the removal choice deterministic.
	h := &degreeHeap{}
	for t := 0; t < n; t++ {
		if deg[t] > 0 {
			heap.Push(h, degreeEntry{deg: deg[t], tuple: t})
		}
	}
	var remove []int
	for edges > 0 {
		e := heap.Pop(h).(degreeEntry)
		if deg[e.tuple] != e.deg { // stale
			continue
		}
		best := e.tuple
		for nb := range adj[best] {
			delete(adj[nb], best)
			deg[nb]--
			edges--
			if deg[nb] > 0 {
				heap.Push(h, degreeEntry{deg: deg[nb], tuple: nb})
			}
		}
		adj[best] = nil
		deg[best] = 0
		remove = append(remove, best)
	}
	slices.Sort(remove)

	removed := make(map[int]bool, len(remove))
	for _, t := range remove {
		removed[t] = true
	}
	keep := make([]int, 0, n-len(remove))
	for t := 0; t < n; t++ {
		if !removed[t] {
			keep = append(keep, t)
		}
	}
	return &RepairResult{Report: rep, Remove: remove, Clean: rel.Project(keep)}, nil
}

// degreeEntry and degreeHeap implement the lazy max-heap of the greedy
// peel: max degree first, ties toward the smaller tuple index (matching
// the tie-break of the greedy f3 ordering).
type degreeEntry struct {
	deg   int
	tuple int
}

type degreeHeap []degreeEntry

func (h degreeHeap) Len() int { return len(h) }
func (h degreeHeap) Less(a, b int) bool {
	if h[a].deg != h[b].deg {
		return h[a].deg > h[b].deg
	}
	return h[a].tuple < h[b].tuple
}
func (h degreeHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *degreeHeap) Push(x any)   { *h = append(*h, x.(degreeEntry)) }
func (h *degreeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
