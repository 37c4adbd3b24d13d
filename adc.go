// Package adc mines approximate denial constraints (ADCs) from
// relational data. It is a from-scratch Go implementation of ADCMiner
// from "Approximate Denial Constraints" (Livshits, Heidari, Ilyas,
// Kimelfeld; VLDB 2020): a predicate-space generator, a uniform tuple
// sampler with statistical threshold correction, a PLI-accelerated
// evidence-set constructor, and an enumeration algorithm (ADCEnum) for
// minimal approximate hitting sets that takes the approximation
// semantics — which function decides how "almost satisfied" a
// constraint is — as an input rather than hard-wiring it.
//
// Quick start:
//
//	rel, _ := adc.ReadCSVFile("people.csv", true)
//	res, _ := adc.Mine(rel, adc.Options{Approx: "f1", Epsilon: 0.01})
//	for _, dc := range res.DCs {
//	    fmt.Println(dc)
//	}
//
// The three built-in approximation functions follow Section 5 of the
// paper: "f1" scores the fraction of violating tuple pairs, "f2" the
// fraction of tuples involved in violations, and "f3" the fraction of
// tuples a greedy repair removes (Figure 2's stand-in for the NP-hard
// cardinality repair). Custom functions implement ApproxFunc and must
// satisfy the validity axioms (monotonicity and indifference to
// redundancy, Definitions 4.1–4.3); the package's own tests check the
// built-in functions against them.
//
// Beyond mining, the package covers the other half of the cleaning
// story: applying constraints back to data. Violations finds the tuple
// pairs violating a set of DCs (mined or hand-written), counting a DC in
// closed form when its pair list is capped, and otherwise choosing per
// DC between a PLI cluster-intersection join, a range probe and a
// sharded parallel refutation scan; Validate scores DCs against a
// relation under f1, f2, or f3 and a threshold; Repair computes a
// greedy deletion set that satisfies every constraint. ParseDCSpec
// reads constraints in the paper's textual notation, so golden or
// expert DCs can be supplied as strings (see cmd/dccheck for the
// command-line form):
//
//	specs, _ := adc.ParseDCSpecs([]string{
//	    "not(t.Zip = t'.Zip and t.State != t'.State)",
//	})
//	rep, _ := adc.Violations(rel, specs, adc.CheckOptions{})
//	for _, r := range rep.Results {
//	    fmt.Println(r.Spec, r.Violations, r.LossF1)
//	}
package adc

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"adc/internal/approx"
	"adc/internal/bitset"
	"adc/internal/dataset"
	"adc/internal/evidence"
	"adc/internal/hitset"
	"adc/internal/pli"
	"adc/internal/predicate"
	"adc/internal/rank"
	"adc/internal/sample"
	"adc/internal/searchmc"
	"adc/internal/violation"
)

// Re-exported data types. Aliases keep the internal packages private
// while giving users concrete constructors and methods.
type (
	// Relation is a typed, column-major table (a database over one
	// relation symbol).
	Relation = dataset.Relation
	// Column is one typed attribute of a Relation.
	Column = dataset.Column
	// DC is a mined denial constraint over a concrete predicate space.
	DC = predicate.DC
	// DCSpec is a relation-independent denial constraint, used for
	// golden constraints and cross-run comparison.
	DCSpec = predicate.DCSpec
	// Spec is a single relation-independent predicate.
	Spec = predicate.Spec
	// Operator is a comparison operator (=, ≠, <, ≤, >, ≥).
	Operator = predicate.Operator
	// PredicateOptions configures predicate-space generation (the 30%
	// common-values rule, single-tuple and cross-column predicates).
	PredicateOptions = predicate.Options
	// PredicateSpace is the generated predicate space P_R.
	PredicateSpace = predicate.Space
	// EvidenceSet is the evidence set Evi(D) with multiplicities.
	EvidenceSet = evidence.Set
	// ApproxFunc is the approximation-function interface of Section 5;
	// implement it to supply custom ADC semantics.
	ApproxFunc = approx.Func
)

// Comparison operators, re-exported.
const (
	Eq  = predicate.Eq
	Neq = predicate.Neq
	Lt  = predicate.Lt
	Leq = predicate.Leq
	Gt  = predicate.Gt
	Geq = predicate.Geq
)

// Re-exported constructors.
var (
	NewRelation     = dataset.NewRelation
	NewStringColumn = dataset.NewStringColumn
	NewIntColumn    = dataset.NewIntColumn
	NewFloatColumn  = dataset.NewFloatColumn
	ReadCSV         = dataset.ReadCSV
	ReadCSVFile     = dataset.ReadCSVFile
	ParseOperator   = predicate.ParseOperator
	// BuildPredicateSpace generates P_R for a relation.
	BuildPredicateSpace = predicate.Build
	// DefaultPredicateOptions mirrors the paper's setup.
	DefaultPredicateOptions = predicate.DefaultOptions
	// ResolveDC binds a relation-independent DCSpec to a space.
	ResolveDC = predicate.FromSpecs
)

// Options configures a mining run. The zero value mines valid (exact)
// DCs with f1 on the full relation.
type Options struct {
	// Approx names the approximation function: "f1" (violating pairs,
	// default), "f2" (violating tuples), or "f3" (greedy repair size).
	// Ignored when Func is set.
	Approx string
	// Func overrides Approx with a custom approximation function.
	Func ApproxFunc
	// Epsilon is the approximation threshold, 0 ≤ ε < 1; a DC is an ADC
	// when 1 − f(D, Sϕ) ≤ ε (Definition 4.4). 0 mines valid DCs. Mine
	// rejects ε ≥ 1, which every DC satisfies (the only minimal one is
	// the empty DC), and NaN.
	Epsilon float64
	// SampleFraction mines from a uniform sample of this fraction of
	// tuples (0 or ≥1 mines the full relation). Section 7.
	SampleFraction float64
	// Alpha, when positive and the function is f1, replaces f1 on the
	// sample with the adjusted f1′ of Section 7.2, so that acceptance
	// implies (w.p. ≥ 1−Alpha) the DC is an ADC of the full relation.
	// 0 ≤ Alpha < 1, and 0 leaves f1 unadjusted. Mine rejects NaN,
	// negative values and Alpha ≥ 1, where z_{1−2α} is −∞ and f1′ stops
	// being a loss.
	Alpha float64
	// Algorithm selects the enumerator: "adcenum" (default), "searchmc"
	// (the AFASTDC baseline), or "mmcs" (exact valid DCs only; requires
	// Epsilon == 0).
	Algorithm string
	// Workers is the enumeration worker count for "adcenum": 0 picks
	// GOMAXPROCS (degrading to the sequential recursion on small
	// evidence sets), 1 forces sequential, n > 1 distributes search
	// subtrees across n workers. The mined DC set is identical for every
	// value. Ignored by "searchmc" and "mmcs".
	Workers int
	// Evidence selects the evidence-set builder: "auto" (default; the
	// bit-level, cluster-tiled DCFinder-style construction, single-
	// threaded on small inputs and on GOMAXPROCS workers above) or
	// "naive" (per-pair predicate evaluation, FASTDC-style, the
	// correctness oracle). Both produce the same evidence.
	Evidence string
	// Indexes optionally shares a per-column PLI store (for example
	// Checker.Indexes) with evidence construction, so a server session
	// that has already indexed its columns does not re-index them per
	// mine. Ignored when mining from a sample, whose rows the store
	// does not describe.
	Indexes *IndexStore
	// Predicates configures the predicate space; zero value means
	// DefaultPredicateOptions.
	Predicates PredicateOptions
	// MaxPredicates bounds DC length; 0 means unbounded.
	MaxPredicates int
	// ChooseMinIntersection switches ADCEnum's branch choice to the
	// min-intersection rule of Murakami and Uno (Figure 10 ablation).
	ChooseMinIntersection bool
	// Seed drives the sampler; runs with equal seeds are reproducible.
	Seed int64
	// Cache, when set, reuses the sampled relation, predicate space, and
	// evidence set of earlier Mine calls with compatible options on the
	// same relation — the expensive components 1–3 of ADCMiner — so that
	// re-mining with a different epsilon, algorithm, or approximation
	// function pays only for enumeration. A MineCache is bound to one
	// relation; never share it across relations.
	Cache *MineCache
}

// Result is the outcome of a mining run.
type Result struct {
	// DCs are the minimal ADCs found. The set is deterministic, but its
	// order is the enumerator's emission order, which under parallel
	// enumeration (Options.Workers != 1) depends on scheduling; use
	// SortDCs or RankDCs for a stable presentation order.
	DCs []DC
	// Space is the predicate space the DCs refer to.
	Space *PredicateSpace
	// Evidence is the constructed evidence set.
	Evidence *EvidenceSet
	// SampleRows is the number of tuples actually mined.
	SampleRows int
	// PredicateSpaceTime, SampleTime, EvidenceTime and EnumTime break
	// down the wall-clock cost of the four ADCMiner components
	// (Figure 1); Total is their sum.
	PredicateSpaceTime, SampleTime, EvidenceTime, EnumTime, Total time.Duration
	// EnumCalls counts recursive calls of the enumerator.
	EnumCalls int64
	// LossEvals counts approximation-function evaluations.
	LossEvals int64
	// EvidenceDelta reports that the evidence set was derived by
	// incremental delta maintenance from a cached pre-append set
	// (MineCache.Extend) instead of a from-scratch build.
	EvidenceDelta bool
	// EvidenceDeltaPairs is the number of ordered tuple pairs the delta
	// pass accounted for (0 on scratch builds).
	EvidenceDeltaPairs int64
	// EvidenceDeltaFallback reports that a cached pre-append set was
	// available but could not be delta-patched — the predicate space
	// changed structurally, the run needed vios the cached set lacks,
	// or the append outgrew the base — forcing a scratch rebuild.
	EvidenceDeltaFallback bool
}

// Mine runs ADCMiner (Figure 1) on the relation: generate the predicate
// space, draw the sample, build the evidence set, and enumerate all
// minimal ADCs w.r.t. the configured approximation function and ε.
func Mine(rel *Relation, opts Options) (*Result, error) {
	if rel == nil {
		return nil, errors.New("adc: nil relation")
	}
	if rel.NumRows() < 2 {
		return nil, fmt.Errorf("adc: relation %q needs at least 2 rows", rel.Name)
	}
	if !(opts.Epsilon >= 0 && opts.Epsilon < 1) {
		return nil, fmt.Errorf("adc: epsilon %v outside [0, 1)", opts.Epsilon)
	}
	if !(opts.Alpha >= 0 && opts.Alpha < 1) {
		return nil, fmt.Errorf("adc: alpha %v outside [0, 1)", opts.Alpha)
	}

	f := opts.Func
	if f == nil {
		name := opts.Approx
		if name == "" {
			name = "f1"
		}
		var err error
		f, err = approx.ForName(name)
		if err != nil {
			return nil, err
		}
	}
	// Validate the builder name before any expensive stage runs; the
	// builder itself is constructed at the evidence step, once the
	// effective data (full relation or sample) fixes the index store.
	if _, err := evidenceBuilder(opts.Evidence, nil); err != nil {
		return nil, err
	}

	algorithm := opts.Algorithm
	if algorithm == "" {
		algorithm = "adcenum"
	}
	if algorithm == "mmcs" && opts.Epsilon != 0 {
		return nil, errors.New(`adc: algorithm "mmcs" mines valid DCs only; use Epsilon 0`)
	}

	popts := opts.Predicates
	if popts == (PredicateOptions{}) {
		popts = predicate.DefaultOptions()
	}

	res := &Result{SampleRows: rel.NumRows()}
	start := time.Now()

	cached, deltaSrc := opts.Cache.lookup(rel, opts, popts)

	// Component 2 (sampler) runs before the space so the 30% rule and
	// evidence see the same tuples.
	data := rel
	t0 := time.Now()
	if opts.SampleFraction > 0 && opts.SampleFraction < 1 {
		if cached != nil {
			data = cached.data
		} else {
			rng := rand.New(rand.NewSource(opts.Seed))
			data = rel.Sample(opts.SampleFraction, rng)
		}
		if data.NumRows() < 2 {
			return nil, fmt.Errorf("adc: sample of %v of %d rows is too small",
				opts.SampleFraction, rel.NumRows())
		}
		res.SampleRows = data.NumRows()
		// Section 7.2: on a sample, adjust f1 by the one-sided normal
		// margin so acceptance transfers to the full relation w.p. ≥ 1−α.
		if opts.Alpha > 0 {
			if _, isF1 := f.(approx.F1); isF1 {
				f = approx.F1Adjusted{Z: sample.Z(opts.Alpha)}
			}
		}
	}
	res.SampleTime = time.Since(t0)

	// Component 1: predicate space.
	t0 = time.Now()
	var space *PredicateSpace
	if cached != nil {
		space = cached.space
	} else {
		space = predicate.Build(data, popts)
	}
	res.Space = space
	res.PredicateSpaceTime = time.Since(t0)

	// Component 3: evidence set. A cached set is reusable when it has at
	// least the structure this run needs: vios-bearing evidence serves
	// vios-free functions, not the reverse.
	t0 = time.Now()
	indexes := opts.Indexes
	if data != rel {
		indexes = nil // the store indexes the full relation, not the sample
	}
	builder, err := evidenceBuilder(opts.Evidence, indexes)
	if err != nil {
		return nil, err
	}
	needsVios := f.NeedsVios()
	var ev *EvidenceSet
	if cached != nil && (cached.ev.HasVios() || !needsVios) {
		ev = cached.ev
	} else {
		// Incremental path: the cache holds this relation's pre-append
		// evidence (MineCache.Extend lineage), so an append of k rows
		// costs O(k·n) pair work instead of the O(n²) rebuild — unless
		// the space changed structurally, vios are needed but missing,
		// or the append outgrew the base (scratch is cheaper then).
		if deltaSrc != nil && data == rel {
			prev := deltaSrc.ev
			switch {
			case needsVios && !prev.HasVios(),
				rel.NumRows()-prev.NumRows > prev.NumRows:
				res.EvidenceDeltaFallback = true
			default:
				next, dst, derr := prev.ApplyDelta(space, indexes)
				if derr != nil {
					res.EvidenceDeltaFallback = true
				} else {
					ev = next
					res.EvidenceDelta = true
					res.EvidenceDeltaPairs = dst.Pairs
				}
			}
		}
		if ev == nil {
			ev, err = builder.Build(space, needsVios)
			if err != nil {
				return nil, err
			}
		}
		opts.Cache.store(opts, popts, &mineEntry{data: data, base: rel, space: space, ev: ev, sampled: data != rel})
	}
	res.Evidence = ev
	res.EvidenceTime = time.Since(t0)

	// Component 4: enumeration.
	t0 = time.Now()
	collect := func(hs bitset.Bits) {
		res.DCs = append(res.DCs, predicate.FromHittingSet(space, hs))
	}
	switch algorithm {
	case "adcenum":
		stats := hitset.EnumerateADC(ev, hitset.Options{
			Func:                  f,
			Epsilon:               opts.Epsilon,
			Workers:               opts.Workers,
			ChooseMinIntersection: opts.ChooseMinIntersection,
			MaxPredicates:         opts.MaxPredicates,
		}, collect)
		res.EnumCalls, res.LossEvals = stats.Calls, stats.LossEvals
	case "searchmc":
		stats := searchmc.Search(ev, searchmc.Options{
			Func:          f,
			Epsilon:       opts.Epsilon,
			MaxPredicates: opts.MaxPredicates,
		}, collect)
		res.EnumCalls, res.LossEvals = stats.Nodes, stats.LossEvals
	case "mmcs":
		stats := hitset.EnumerateMinimal(ev, hitset.Options{
			MaxPredicates: opts.MaxPredicates,
		}, collect)
		res.EnumCalls = stats.Calls
	default:
		return nil, fmt.Errorf("adc: unknown algorithm %q (want adcenum, searchmc, or mmcs)",
			algorithm)
	}
	res.EnumTime = time.Since(t0)
	res.Total = time.Since(start)
	return res, nil
}

func evidenceBuilder(name string, indexes *IndexStore) (evidence.Builder, error) {
	switch name {
	case "", "auto":
		return evidence.ClusterBuilder{Indexes: indexes}, nil
	case "naive":
		return evidence.NaiveBuilder{}, nil
	}
	return nil, fmt.Errorf("adc: unknown evidence builder %q (want auto or naive)", name)
}

// MineCache caches the expensive intermediates of Mine — the sampled
// relation, the predicate space, and the evidence set — keyed by the
// options that determine them (predicate options, sample fraction and
// seed, evidence builder). Re-mining the same relation with a different
// epsilon, algorithm, or approximation function then pays only for
// enumeration. Safe for concurrent use; bound to one relation and its
// append lineage: after the relation grows via AppendRows, call Extend
// and the next Mine maintains the cached evidence incrementally in
// O(delta) instead of rebuilding it.
type MineCache struct {
	mu      sync.Mutex
	entries map[string]*mineEntry
}

type mineEntry struct {
	data  *Relation
	space *PredicateSpace
	ev    *EvidenceSet
	// sampled records whether data is a cache-owned sample; when false,
	// data aliases the caller's relation and is not cache footprint.
	sampled bool
	// base is the caller relation the entry was built for (equal to data
	// for full-relation entries, the sampled relation's origin
	// otherwise); lookup validates it so a stale entry can never serve a
	// different relation.
	base *Relation
	// deltaTarget, set by Extend, names the append-descendant of base
	// that this entry's evidence can be delta-patched to. Only the
	// newest target is kept — multi-batch appends collapse into one
	// delta from the cached base.
	deltaTarget *Relation
}

// NewMineCache creates an empty cache for use as Options.Cache across
// Mine calls on one relation.
func NewMineCache() *MineCache {
	return &MineCache{entries: make(map[string]*mineEntry)}
}

// mineKey identifies the cached intermediates a run can reuse: the
// predicate options, the effective sample (fraction and seed, or the
// full relation), and the evidence builder.
func mineKey(opts Options, popts PredicateOptions) string {
	sample := "full"
	if opts.SampleFraction > 0 && opts.SampleFraction < 1 {
		sample = fmt.Sprintf("frac=%g,seed=%d", opts.SampleFraction, opts.Seed)
	}
	builder := opts.Evidence
	if builder == "" {
		builder = "auto"
	}
	return fmt.Sprintf("%+v|%s|%s", popts, sample, builder)
}

// lookup returns the entry directly reusable for rel (built from this
// very relation) or, failing that, the entry whose evidence Extend
// marked as delta-patchable to rel. Entries for any other relation are
// invisible — the cache can never serve stale intermediates.
func (c *MineCache) lookup(rel *Relation, opts Options, popts PredicateOptions) (direct, deltaSrc *mineEntry) {
	if c == nil {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[mineKey(opts, popts)]
	switch {
	case e == nil:
		return nil, nil
	case e.base == rel:
		return e, nil
	case e.deltaTarget == rel && !e.sampled:
		return nil, e
	}
	return nil, nil
}

// Extend informs the cache that its relation grew: old was superseded
// by the append-derived next (dataset.Relation.AppendRows keeps row
// order and indexes stable, which the evidence delta relies on).
// Full-relation entries survive and are retagged so the next Mine on
// next takes the O(delta) evidence path; sampled entries are dropped — a
// sample of the old relation says nothing about the new one — as are
// entries for unrelated relations.
func (c *MineCache) Extend(old, next *Relation) {
	if c == nil || old == next || next == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.entries {
		switch {
		case e.base == next || e.deltaTarget == next:
			// Already current (a concurrent mine raced ahead).
		case e.sampled:
			delete(c.entries, key)
		case e.base == old || e.deltaTarget == old:
			e.deltaTarget = next
		default:
			delete(c.entries, key)
		}
	}
}

// store publishes an entry, preferring the structurally richer evidence
// set when racing builds land on the same key: a vios-bearing set
// serves every later run, a vios-free one only pair-based functions.
func (c *MineCache) store(opts Options, popts PredicateOptions, e *mineEntry) {
	if c == nil {
		return
	}
	key := mineKey(opts, popts)
	c.mu.Lock()
	defer c.mu.Unlock()
	if prior, ok := c.entries[key]; ok && prior.base == e.base && prior.ev.HasVios() && !e.ev.HasVios() {
		return
	}
	c.entries[key] = e
}

// MemBytes estimates the heap footprint of the cached evidence sets and
// sampled relations, for cache accounting.
func (c *MineCache) MemBytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var b int64
	for _, e := range c.entries {
		b += e.ev.MemBytes()
		if e.sampled {
			b += e.data.MemBytes()
		}
	}
	return b
}

// Loss evaluates 1 − f(D, Sϕ) for a DC against an evidence set, using
// the named approximation function. Convenience for scoring individual
// constraints (for example golden DCs) outside a mining run.
func Loss(f ApproxFunc, ev *EvidenceSet, dc DC) float64 {
	return approx.LossOfHittingSet(f, ev, dc.HittingSet())
}

// ApproxByName returns a built-in approximation function: "f1", "f2",
// or "f3".
func ApproxByName(name string) (ApproxFunc, error) { return approx.ForName(name) }

// DCScore is the interestingness breakdown of a ranked DC
// (succinctness and coverage, the FASTDC measures).
type DCScore = rank.Score

// RankDCs orders mined DCs by decreasing interestingness —
// 0.5·succinctness + 0.5·coverage, as in Chu et al. Useful for
// surfacing the most general, best-supported constraints first.
func RankDCs(ev *EvidenceSet, dcs []DC) []DCScore { return rank.Rank(ev, dcs) }

// ---- Constraint application (the check side) ----------------------------

// Violation-checking types, re-exported from internal/violation.
type (
	// CheckOptions configures Violations, Validate, and Repair: the
	// execution path ("auto" or "scan"), worker count, and the per-DC
	// cap on recorded pairs.
	CheckOptions = violation.Options
	// ViolationReport is the outcome of a Violations run: per-DC
	// results plus aggregate per-tuple violation counts.
	ViolationReport = violation.Report
	// DCViolations is the per-DC entry of a ViolationReport: violating
	// pairs, tuple counts, losses under f1/f2/f3, and the path used.
	DCViolations = violation.DCResult
	// DCValidation is the per-DC verdict of Validate.
	DCValidation = violation.Validation
	// RepairResult is the outcome of Repair: the tuples to delete and
	// the repaired relation.
	RepairResult = violation.RepairResult
	// PlanExplain is the executed query plan of one DC: shape, join
	// cascade, pushed-down range predicate, residual order, and
	// estimated vs. examined candidate pairs.
	PlanExplain = violation.PlanExplain
)

// Execution paths for CheckOptions.Path. AutoPath (the default) runs
// the greedy cost-ordered planner, which picks a PLI join, a range
// probe, or the scan per DC; ScanPath forces the refutation scan, the
// reference the planner's executors are tested against.
const (
	AutoPath = violation.PathAuto
	ScanPath = violation.PathScan
)

// Checker binds a relation to reusable checking state: per-column
// position list indexes and per-DC compiled plans, both built at most
// once and shared by every later Check/Validate/Repair call. It is the
// unit of caching behind cmd/dcserved's dataset sessions and is safe
// for concurrent use; one-shot callers can stay with the package-level
// Violations/Validate/Repair, which run on a throwaway Checker.
type Checker = violation.Checker

// IndexStore is a concurrency-safe, lazily populated cache of
// per-column position list indexes over one relation's columns. The
// violation checker builds one (Checker.Indexes); passing it through
// Options.Indexes lets evidence construction reuse the same indexes.
type IndexStore = pli.Store

// NewChecker creates a Checker over the relation with empty caches.
var NewChecker = violation.NewChecker

// Violations finds, for every DC, the ordered tuple pairs of the
// relation that violate it, with per-tuple violation counts and the DC's
// approximation losses under f1, f2, and f3. With CheckOptions.MaxPairs
// set, a countable DC is counted per join group and only the first
// MaxPairs pairs are listed; otherwise each DC runs on the plan the
// cost-ordered planner chooses (a PLI cluster-intersection join, a
// sorted-rank range probe, or the parallel refutation scan), or on the
// scan when CheckOptions.Path forces it.
func Violations(rel *Relation, dcs []DCSpec, opts CheckOptions) (*ViolationReport, error) {
	return violation.Check(rel, dcs, opts)
}

// Validate scores every DC against the relation and accepts it when the
// loss under the named approximation function ("f1", "f2", or "f3") is
// at most eps — the check-side counterpart of Definition 4.4. With eps
// 0 it verifies valid DCs. It lists no pairs, so CheckOptions.MaxPairs
// is ignored.
func Validate(rel *Relation, dcs []DCSpec, approxName string, eps float64, opts CheckOptions) ([]DCValidation, error) {
	return violation.Validate(rel, dcs, approxName, eps, opts)
}

// Repair computes a greedy deletion repair: the tuples to remove so the
// relation satisfies every DC (the explicit counterpart of the greedy
// cardinality-repair stand-in behind f3, Figure 2).
func Repair(rel *Relation, dcs []DCSpec, opts CheckOptions) (*RepairResult, error) {
	return violation.Repair(rel, dcs, opts)
}

// RepairFromReport computes the greedy repair from a report previously
// produced by Violations, skipping the re-enumeration Repair would do.
// The report must have been built with CheckOptions.MaxPairs 0, since
// the conflict graph needs every violating pair. (Verdicts can likewise
// be derived without re-checking via ViolationReport.Validations.)
func RepairFromReport(rel *Relation, rep *ViolationReport) (*RepairResult, error) {
	return violation.RepairReport(rel, rep)
}

// SortDCs orders DCs in place most-general-first: fewer predicates
// first, ties by canonical form. This is the presentation (and
// truncation) order used by the CLIs and the experiments when surfacing
// mined output.
func SortDCs(dcs []DC) {
	// Format each DC once rather than on every comparison.
	type keyed struct {
		size  int
		canon string
		dc    DC
	}
	ks := make([]keyed, len(dcs))
	for i, dc := range dcs {
		ks[i] = keyed{dc.Size(), dc.Canonical(), dc}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		return cmp.Or(cmp.Compare(a.size, b.size), strings.Compare(a.canon, b.canon))
	})
	for i, k := range ks {
		dcs[i] = k.dc
	}
}

// DCSpecs converts mined DCs into relation-independent specs, the form
// Violations, Validate, and Repair consume. Use it to apply constraints
// mined on one relation (or a sample) to another.
func DCSpecs(dcs []DC) []DCSpec {
	out := make([]DCSpec, len(dcs))
	for i, dc := range dcs {
		out[i] = dc.Spec()
	}
	return out
}

// ParseDCSpec parses one DC in the paper's notation, e.g.
// "not(t.Zip = t'.Zip and t.State != t'.State)".
func ParseDCSpec(s string) (DCSpec, error) { return predicate.ParseDCSpec(s) }

// ParseDCSpecs parses a list of DCs in the paper's notation.
func ParseDCSpecs(lines []string) ([]DCSpec, error) {
	out := make([]DCSpec, 0, len(lines))
	for _, line := range lines {
		spec, err := predicate.ParseDCSpec(line)
		if err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}

// SampleThreshold returns ε_J of Inequality 2: the threshold to apply
// to the violating-pair fraction p̂ observed on a sample of the given
// size so that acceptance implies, with probability at least 1−alpha,
// an ADC of the full relation w.r.t. eps. alpha must lie in (0, 1): at
// 0 or 1 the quantile z_{1−2α} is infinite, and the result is NaN when
// pHat is 0.
func SampleThreshold(eps, pHat float64, sampleRows int, alpha float64) float64 {
	return sample.Threshold(eps, pHat, sampleRows, alpha)
}
