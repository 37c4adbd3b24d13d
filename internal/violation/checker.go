package violation

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"adc/internal/approx"
	"adc/internal/dataset"
	"adc/internal/pli"
	"adc/internal/predicate"
)

// Checker binds a relation to the cached state that makes repeated
// constraint checks cheap: a concurrency-safe position-list-index store
// (built per column at most once) and, per DC spec, the compiled
// predicates, single-tuple mask, and prepared grouped plan. One-shot
// callers get the same behavior through the package-level Check /
// Validate / Repair, which run on a throwaway Checker; long-lived
// callers (the server's dataset sessions) construct one Checker per
// relation and amortize all index and plan construction across
// requests.
//
// A Checker is safe for concurrent use. The relation it wraps must not
// be mutated; to grow the data, AppendRows derives a new Checker
// copy-on-write, leaving in-flight requests on the old one consistent.
type Checker struct {
	cache *pliCache

	mu    sync.RWMutex
	plans map[string]*dcPlan

	planHits, planMisses atomic.Int64
	shapes               shapeCounters
}

// shapeCounters tallies executed plan shapes (dcserved's /metrics
// exposes them so mixed validate/mine traffic can be diagnosed by the
// plans it actually ran).
type shapeCounters struct {
	eqjoin, crossjoin, rng, scan atomic.Int64
}

func (s *shapeCounters) inc(shape string) {
	switch shape {
	case ShapeEqJoin:
		s.eqjoin.Add(1)
	case ShapeCrossJoin:
		s.crossjoin.Add(1)
	case ShapeRange:
		s.rng.Add(1)
	default:
		s.scan.Add(1)
	}
}

// dcPlan is the cached compilation of one DC spec against the
// relation: predicates split, cross-tuple predicates in greedy
// cost-to-refute order with their selectivity estimates, the
// single-tuple mask, and (each built lazily on first need) the grouped
// plan, the planner's choice, and the count phase. All fields are
// immutable once built.
type dcPlan struct {
	singles, cross []compiledPred
	sels           []float64 // estimated selectivity per cross predicate
	mask           []bool

	grpOnce sync.Once
	// grp is atomic so stat readers (MemBytes) can observe it without
	// triggering the lazy build; nil means not built yet. Same
	// convention for qp and cnt.
	grp atomic.Pointer[groupPlan]

	qpOnce sync.Once
	qp     atomic.Pointer[queryPlan]

	cntOnce sync.Once
	cnt     atomic.Pointer[countPlan]
}

// NewChecker creates a Checker over the relation with empty caches.
func NewChecker(rel *dataset.Relation) *Checker {
	return &Checker{cache: newPLICache(rel), plans: make(map[string]*dcPlan)}
}

// NewCheckerWithStore creates a Checker over the relation that adopts
// an existing per-column index store instead of starting cold — the
// restore path of snapshot loading, where the PLIs were deserialized
// alongside the relation and a warm re-attach must not rebuild them.
// The store must cover exactly the relation's columns.
func NewCheckerWithStore(rel *dataset.Relation, store *pli.Store) (*Checker, error) {
	if store == nil {
		return NewChecker(rel), nil
	}
	if !store.Covers(rel.Columns) {
		return nil, errors.New("violation: index store does not cover the relation's columns")
	}
	return &Checker{cache: &pliCache{rel: rel, store: store}, plans: make(map[string]*dcPlan)}, nil
}

// Relation returns the relation the Checker is bound to.
func (c *Checker) Relation() *dataset.Relation { return c.cache.rel }

// Indexes exposes the Checker's per-column PLI store, so other
// PLI-consuming stages — evidence construction in particular — share
// one set of indexes with the violation paths instead of rebuilding
// them. The store is concurrency-safe; AppendRows carries it forward
// copy-on-write (see pli.Store.Extend), so the sharing survives
// appends.
func (c *Checker) Indexes() *pli.Store { return c.cache.store }

// plan returns the cached compilation of the spec, compiling on first
// use. The cache key is the spec's canonical string form.
func (c *Checker) plan(spec predicate.DCSpec) (*dcPlan, error) {
	key := spec.String()
	c.mu.RLock()
	p := c.plans[key]
	c.mu.RUnlock()
	if p != nil {
		c.planHits.Add(1)
		return p, nil
	}
	preds, err := compileDC(c.cache, spec)
	if err != nil {
		return nil, err
	}
	singles, cross := splitPreds(preds)
	sels := orderCross(c.cache, cross)
	p = &dcPlan{singles: singles, cross: cross, sels: sels, mask: singleMask(c.cache.rel.NumRows(), singles)}
	c.mu.Lock()
	if prior := c.plans[key]; prior != nil {
		p = prior // another goroutine compiled concurrently
		c.planHits.Add(1)
	} else {
		c.plans[key] = p
		c.planMisses.Add(1)
	}
	c.mu.Unlock()
	return p, nil
}

// groupPlan returns the DC's grouped plan, building it on first use.
func (p *dcPlan) groupPlan(cache *pliCache) *groupPlan {
	p.grpOnce.Do(func() { p.grp.Store(prepareGroupPlan(cache, p.cross, p.sels)) })
	return p.grp.Load()
}

// queryPlan returns the planner's shape choice for the DC, deciding on
// first use.
func (p *dcPlan) queryPlan(cache *pliCache, n int) *queryPlan {
	p.qpOnce.Do(func() { p.qp.Store(prepareQueryPlan(cache, p, n)) })
	return p.qp.Load()
}

// countPlan returns the DC's count phase, preparing it on first use on
// up to workers goroutines (nil when the DC is not countable).
func (p *dcPlan) countPlan(cache *pliCache, workers int) *countPlan {
	p.cntOnce.Do(func() { p.cnt.Store(prepareCountPlan(cache, p, workers)) })
	return p.cnt.Load()
}

// Check finds the violations of every DC against the relation and
// scores each DC under f1, f2, and f3, reusing every cached index and
// plan. A capped check (MaxPairs > 0) of a countable DC counts instead
// of enumerating (see the package comment).
func (c *Checker) Check(specs []predicate.DCSpec, opts Options) (*Report, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := c.cache.rel.NumRows()
	rep := &Report{NumRows: n, TotalPairs: int64(n) * int64(n-1)}
	for _, spec := range specs {
		res, err := c.checkOne(spec, opts)
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, *res)
		rep.Violations += res.Violations
	}
	if len(rep.Results) == 1 {
		rep.TupleViolations = rep.Results[0].TupleCounts
	} else {
		rep.TupleViolations = make([]int64, n)
		for _, res := range rep.Results {
			for t, cnt := range res.TupleCounts {
				rep.TupleViolations[t] += cnt
			}
		}
	}
	rep.Clean = rep.Violations == 0
	return rep, nil
}

func (c *Checker) checkOne(spec predicate.DCSpec, opts Options) (*DCResult, error) {
	plan, err := c.plan(spec)
	if err != nil {
		return nil, err
	}
	// A forced scan builds nothing and enumerates; the planner builds
	// structures lazily (see prepareQueryPlan), and its plan is the one
	// a counted result explains.
	n := c.cache.rel.NumRows()
	if opts.Path == PathScan {
		return c.execute(spec, plan, scanQueryPlan(plan, n), opts), nil
	}
	qp := plan.queryPlan(c.cache, n)
	if opts.MaxPairs > 0 {
		if cp := plan.countPlan(c.cache, opts.Workers); cp != nil {
			return c.report(spec, qp, cp.count(n, plan.mask, opts.Workers, opts.MaxPairs), opts), nil
		}
	}
	return c.execute(spec, plan, qp, opts), nil
}

// execute enumerates one DC's violations with the query plan's executor
// and scores the result.
func (c *Checker) execute(spec predicate.DCSpec, plan *dcPlan, qp *queryPlan, opts Options) *DCResult {
	n := c.cache.rel.NumRows()
	var col *collector
	if qp.group != nil {
		col = qp.group.run(n, plan.mask, opts.Workers, opts.MaxPairs)
	} else {
		col = scanPairs(n, plan.mask, plan.cross, opts.Workers, opts.MaxPairs)
	}
	return c.report(spec, qp, col, opts)
}

// report scores one DC's collected violations under the query plan
// that explains them.
func (c *Checker) report(spec predicate.DCSpec, qp *queryPlan, col *collector, opts Options) *DCResult {
	n := c.cache.rel.NumRows()
	c.shapes.inc(qp.explain.Shape)

	// Each worker's retained pairs are its lexicographically smallest;
	// sorting the merged retention and re-capping yields the globally
	// smallest MaxPairs pairs (or all pairs when uncapped).
	slices.SortFunc(col.pairs, pairCmp)
	explain := qp.explain
	explain.ActualPairs = col.examined
	res := &DCResult{
		Spec:        spec,
		Violations:  col.violations,
		Pairs:       col.pairs,
		TupleCounts: col.counts,
		Path:        pathName(qp.explain.Shape),
		Plan:        &explain,
	}
	if opts.MaxPairs > 0 && len(res.Pairs) > opts.MaxPairs {
		res.Pairs = res.Pairs[:opts.MaxPairs]
	}
	res.Truncated = res.Violations > int64(len(res.Pairs))
	res.LossF1 = lossF1(col.violations, int64(n)*int64(n-1))
	res.LossF2 = lossF2(col.counts, n)
	res.LossF3 = approx.GreedyF3{}.TupleLoss(col.counts, col.violations, n)
	return res
}

// Validate scores every DC against the relation and compares the loss
// under the named approximation function to eps, reusing cached state.
// A verdict needs no pairs, so it checks with MaxPairs 1: counts stay
// exact, a countable DC is counted, and no other executor lists every
// pair.
func (c *Checker) Validate(specs []predicate.DCSpec, approxName string, eps float64, opts Options) ([]Validation, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts.MaxPairs = 1
	rep, err := c.Check(specs, opts)
	if err != nil {
		return nil, err
	}
	return rep.Validations(approxName, eps)
}

// Repair computes the greedy deletion repair for the DCs, reusing
// cached state for the underlying check.
func (c *Checker) Repair(specs []predicate.DCSpec, opts Options) (*RepairResult, error) {
	opts.MaxPairs = 0 // the conflict graph needs every pair
	rep, err := c.Check(specs, opts)
	if err != nil {
		return nil, err
	}
	return RepairReport(c.cache.rel, rep)
}

// AppendRows derives a Checker over the relation grown by the given
// records (string values in column order, parsed against the column
// types). Cached structures are invalidated at the finest grain that
// stays correct: column indexes are patched in place of a rebuild
// whenever the appended values permit (see pli.Store.Extend; patched
// and dropped report the split), while the per-spec plans — whose masks
// and candidate estimates are row-count-dependent — are discarded and
// lazily recompiled. The receiver is untouched and remains valid for
// requests already in flight against the old rows.
func (c *Checker) AppendRows(records [][]string) (next *Checker, patched, dropped int, err error) {
	grown, err := c.cache.rel.AppendRows(records)
	if err != nil {
		return nil, 0, 0, err
	}
	store, patched, dropped := c.cache.store.Extend(grown.Columns, c.cache.rel.NumRows())
	next = &Checker{
		cache: &pliCache{rel: grown, store: store},
		plans: make(map[string]*dcPlan),
	}
	next.planHits.Store(c.planHits.Load())
	next.planMisses.Store(c.planMisses.Load())
	next.shapes.eqjoin.Store(c.shapes.eqjoin.Load())
	next.shapes.crossjoin.Store(c.shapes.crossjoin.Load())
	next.shapes.rng.Store(c.shapes.rng.Load())
	next.shapes.scan.Store(c.shapes.scan.Load())
	return next, patched, dropped, nil
}

// PlanStats returns cumulative plan-cache hits and misses (a miss
// compiles the spec; its grouped plan is prepared on first need).
func (c *Checker) PlanStats() (hits, misses int64) {
	return c.planHits.Load(), c.planMisses.Load()
}

// PlanShapes returns the cumulative count of executed checks per plan
// shape, keyed by the Shape* constants.
func (c *Checker) PlanShapes() map[string]int64 {
	return map[string]int64{
		ShapeEqJoin:    c.shapes.eqjoin.Load(),
		ShapeCrossJoin: c.shapes.crossjoin.Load(),
		ShapeRange:     c.shapes.rng.Load(),
		ShapeScan:      c.shapes.scan.Load(),
	}
}

// IndexStats returns cumulative PLI store hits and misses.
func (c *Checker) IndexStats() (hits, misses int64) {
	return c.cache.store.Stats()
}

// CachedIndexes returns the number of columns with a built PLI.
func (c *Checker) CachedIndexes() int { return c.cache.store.CachedColumns() }

// MemBytes estimates the heap footprint of the cached state (indexes,
// masks, grouped plans, and the count phase's class ids and sweep
// points; the relation itself is not counted).
func (c *Checker) MemBytes() int64 {
	b := c.cache.store.MemBytes()
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, p := range c.plans {
		b += int64(len(p.mask))
		b += int64(len(p.singles)+len(p.cross)) * 64
		if gp := p.grp.Load(); gp != nil {
			b += gp.memBytes
		}
		if cp := p.cnt.Load(); cp != nil {
			b += cp.memBytes
		}
	}
	return b
}
