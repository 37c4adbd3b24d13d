package violation

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"adc/internal/dataset"
	"adc/internal/par"
	"adc/internal/pli"
)

// collector accumulates the violating ordered pairs of one DC together
// with per-tuple participation counts (each ordered pair contributes to
// both endpoints, matching the vios structure of the evidence set).
// With a positive cap, only the lexicographically smallest cap pairs
// are retained (kept sorted by bounded insertion), so memory stays
// O(cap) per worker no matter how dirty the relation is; counts and the
// violation total remain exact.
type collector struct {
	pairs      [][2]int
	cap        int
	counts     []int64
	violations int64
	// examined counts the candidate pairs handed to the residual
	// predicates — PlanExplain.ActualPairs.
	examined int64
}

func newCollector(n, cap int) *collector {
	return &collector{counts: make([]int64, n), cap: cap}
}

func pairLess(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// pairCmp is pairLess as a three-way comparison for slices.SortFunc.
func pairCmp(a, b [2]int) int {
	if a[0] != b[0] {
		return a[0] - b[0]
	}
	return a[1] - b[1]
}

func (c *collector) add(i, j int) {
	c.violations++
	c.counts[i]++
	c.counts[j]++
	p := [2]int{i, j}
	if c.cap == 0 {
		c.pairs = append(c.pairs, p)
		return
	}
	n := len(c.pairs)
	if n == c.cap {
		if !pairLess(p, c.pairs[n-1]) {
			return
		}
		pos := sort.Search(n, func(k int) bool { return pairLess(p, c.pairs[k]) })
		copy(c.pairs[pos+1:], c.pairs[pos:n-1])
		c.pairs[pos] = p
		return
	}
	pos := sort.Search(n, func(k int) bool { return pairLess(p, c.pairs[k]) })
	c.pairs = append(c.pairs, [2]int{})
	copy(c.pairs[pos+1:], c.pairs[pos:n])
	c.pairs[pos] = p
}

// merge folds worker-local collectors into the first one.
func mergeCollectors(cs []*collector) *collector {
	base := cs[0]
	for _, o := range cs[1:] {
		base.violations += o.violations
		base.examined += o.examined
		base.pairs = append(base.pairs, o.pairs...)
		for t, c := range o.counts {
			base.counts[t] += c
		}
	}
	return base
}

// clampWorkers resolves a check's worker count: 0 or less means
// GOMAXPROCS, and the count is capped by par.Clamp and by the n rows to
// share out, but is at least 1.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(min(par.Clamp(workers), n), 1)
}

// shardRows runs the first-tuple rows [0, n) on up to workers
// goroutines: worker w scans the contiguous shard [w·n/W, (w+1)·n/W)
// into its own collector, and the collectors merge in worker order.
func shardRows(n, workers, cap int, scan func(c *collector, lo, hi int)) *collector {
	workers = clampWorkers(workers, n)
	cs := make([]*collector, workers)
	par.Do(workers, workers, func(w int) {
		cs[w] = newCollector(n, cap)
		scan(cs[w], w*n/workers, (w+1)*n/workers)
	})
	return mergeCollectors(cs)
}

// ---- Scan path -----------------------------------------------------------

// scanPairs is the general-case execution path: a refutation scan over
// all ordered tuple pairs, sharded by first-tuple index across worker
// goroutines. Predicates arrive most-selective-first, so most pairs are
// refuted by the first evaluation; rows failing the single-tuple mask
// skip their entire inner loop.
func scanPairs(n int, mask []bool, preds []compiledPred, workers, cap int) *collector {
	return shardRows(n, workers, cap, func(c *collector, lo, hi int) {
		scanRange(c, lo, hi, n, mask, preds)
	})
}

func scanRange(c *collector, lo, hi, n int, mask []bool, preds []compiledPred) {
	for i := lo; i < hi; i++ {
		if mask != nil && !mask[i] {
			continue
		}
		c.examined += int64(n - 1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			sat := true
			for k := range preds {
				if !preds[k].eval(i, j) {
					sat = false
					break
				}
			}
			if sat {
				c.add(i, j)
			}
		}
	}
}

// ---- PLI path ------------------------------------------------------------

// pliCache shares per-column position list indexes across the DCs of a
// Checker — and, since the backing pli.Store is concurrency-safe and
// lazily populated, across every request served by that Checker.
type pliCache struct {
	rel   *dataset.Relation
	store *pli.Store

	wideOnce sync.Once
	wide     []bool // per column, see wideInt
}

func newPLICache(rel *dataset.Relation) *pliCache {
	return &pliCache{rel: rel, store: pli.NewStore(rel.Columns)}
}

func (c *pliCache) index(col int) *pli.Index {
	return c.store.Index(col)
}

// maxExactInt is 2^53: float64 holds every integer in [−2^53, 2^53]
// exactly, and no wider range.
const maxExactInt = 1 << 53

// wideInt reports whether the column is an Int column holding a value
// beyond ±2^53. Float64 keys cannot tell such a value from its
// neighbours, so the column is never keyed by its numeric index (see
// compiledPred.wide). Decided once per column, on first need.
func (c *pliCache) wideInt(col int) bool {
	c.wideOnce.Do(func() {
		c.wide = make([]bool, len(c.rel.Columns))
		for k, cl := range c.rel.Columns {
			if cl.Type != dataset.Int {
				continue
			}
			for _, v := range cl.Ints {
				if v > maxExactInt || v < -maxExactInt {
					c.wide[k] = true
					break
				}
			}
		}
	})
	return c.wide[col]
}

// pliPlan is the prepared cluster-intersection join for one DC. Exactly
// one of groups (same-attribute equality join, possibly composite) or
// probe/build (cross-column equality join) is populated. residual holds
// the cross-tuple predicates not consumed by the join, ordered
// most-selective-first. candPairs is the exact count of ordered
// candidate pairs the join emits; estPairs is what the planner
// predicted from column statistics before building (the explain
// output's estimated side); joinCols names the equality cascade.
type pliPlan struct {
	groups    [][]int32
	probe     []int32
	build     map[int32][]int32
	residual  []compiledPred
	candPairs int64
	estPairs  int64
	joinCols  []string

	// Within-group order pushdown (eqjoin shape only): driver is an
	// order predicate answered by binary search over each large group's
	// rows pre-sorted by build-side value, instead of per-pair
	// refutation. groupRows/groupVals align with groups; nil entries
	// (small groups) evaluate driver per pair. Sorting happens once at
	// plan build, so warm checks pay nothing.
	driver    *compiledPred
	driverA   *dataset.Column
	groupRows [][]int32
	groupVals [][]float64
}

// preparePLIPlan builds the cluster-intersection join for a DC, or
// returns nil when the DC has no cross-tuple equality predicate to join
// on. Same-attribute equalities are preferred: all of them cascade into
// one composite join key (their PLI clusters are intersected exactly),
// most selective column first so intermediate groups shrink fastest.
// Otherwise the cross-column equality with the lowest estimated
// selectivity is joined via merged codes — chosen from statistics, so
// only one join is ever materialized. cross must already be in greedy
// order with sels aligned (orderCross).
func preparePLIPlan(cache *pliCache, cross []compiledPred, sels []float64) *pliPlan {
	n := cache.rel.NumRows()
	var joinCols []int
	seen := map[int]bool{}
	for _, p := range cross {
		if p.sameAttrEq() && !seen[p.a] {
			seen[p.a] = true
			joinCols = append(joinCols, p.a)
		}
	}
	if len(joinCols) > 0 {
		// Cascade order: most selective equality first. EqFraction is
		// exact per column; the composite estimate assumes independence.
		slices.SortStableFunc(joinCols, func(a, b int) int {
			fa, fb := cache.store.StatsFor(a).EqFraction(), cache.store.StatsFor(b).EqFraction()
			switch {
			case fa < fb:
				return -1
			case fa > fb:
				return 1
			}
			return 0
		})
		est := 1.0
		plan := &pliPlan{}
		for _, col := range joinCols {
			est *= cache.store.StatsFor(col).EqFraction()
			plan.joinCols = append(plan.joinCols, cache.rel.Columns[col].Name)
		}
		plan.estPairs = estPairs(est, n)
		plan.groups = sameAttrGroups(cache, joinCols)
		for _, p := range cross {
			if !p.sameAttrEq() {
				plan.residual = append(plan.residual, p)
			}
		}
		for _, g := range plan.groups {
			plan.candPairs += int64(len(g)) * int64(len(g)-1)
		}
		plan.pushdownOrder(cache)
		return plan
	}

	// No same-attribute equality: join on the cross-column equality with
	// the lowest estimated selectivity, if any.
	best := -1
	for k, p := range cross {
		if p.crossColEq() && (best < 0 || sels[k] < sels[best]) {
			best = k
		}
	}
	if best < 0 {
		return nil
	}
	bp := cross[best]
	probe, build, cand := crossColJoin(cache.rel, bp.a, bp.b)
	plan := &pliPlan{
		probe:     probe,
		build:     build,
		candPairs: cand,
		estPairs:  estPairs(sels[best], n),
		joinCols:  []string{cache.rel.Columns[bp.a].Name + "=" + cache.rel.Columns[bp.b].Name},
	}
	for k, p := range cross {
		if k != best {
			plan.residual = append(plan.residual, p)
		}
	}
	return plan
}

// pushdownOrder extracts the most selective order predicate from an
// eqjoin's residual and pre-sorts every group of at least
// groupRangeMinSize rows by the predicate's build-side value (NaN rows
// dropped — they satisfy no order comparison), so the executor finds a
// probe row's qualifying partners by binary search instead of
// evaluating the predicate per pair.
func (plan *pliPlan) pushdownOrder(cache *pliCache) {
	driver := bestOrderPred(plan.residual)
	if driver < 0 {
		return
	}
	big := false
	for _, g := range plan.groups {
		if len(g) >= groupRangeMinSize {
			big = true
			break
		}
	}
	if !big {
		return
	}
	d := plan.residual[driver]
	plan.driver = &d
	plan.driverA = cache.rel.Columns[d.a]
	plan.residual = append(plan.residual[:driver:driver], plan.residual[driver+1:]...)
	bv := cache.rel.Columns[d.b]
	plan.groupRows = make([][]int32, len(plan.groups))
	plan.groupVals = make([][]float64, len(plan.groups))
	for k, g := range plan.groups {
		if len(g) < groupRangeMinSize {
			continue
		}
		rows := sortByValue(g, bv)
		vals := make([]float64, len(rows))
		for i, r := range rows {
			vals[i] = bv.Num(int(r))
		}
		plan.groupRows[k] = rows
		plan.groupVals[k] = vals
	}
}

// sortByValue returns the rows of g whose value in c is not NaN (NaN
// satisfies no order comparison), sorted by that value, ties in row
// order: the order in which the eqjoin pushdown binary-searches a group
// and the count phase sweeps one.
func sortByValue(g []int32, c *dataset.Column) []int32 {
	rows := make([]int32, 0, len(g))
	for _, r := range g {
		if v := c.Num(int(r)); v == v {
			rows = append(rows, r)
		}
	}
	slices.SortFunc(rows, func(a, b int32) int {
		if o := cmp.Compare(c.Num(int(a)), c.Num(int(b))); o != 0 {
			return o
		}
		return cmp.Compare(a, b)
	})
	return rows
}

// sameAttrGroups intersects the PLI clusters of the join columns: rows
// end up in the same group iff they agree on every join column. Groups
// of fewer than two rows cannot form a pair and are dropped.
func sameAttrGroups(cache *pliCache, cols []int) [][]int32 {
	idx0 := cache.index(cols[0])
	groups := make([][]int32, 0, len(idx0.Clusters))
	for _, cl := range idx0.Clusters {
		if len(cl) >= 2 {
			groups = append(groups, cl)
		}
	}
	for _, col := range cols[1:] {
		clusterOf := cache.index(col).ClusterOf
		var next [][]int32
		for _, g := range groups {
			parts := make(map[int32][]int32)
			for _, r := range g {
				parts[clusterOf[r]] = append(parts[clusterOf[r]], r)
			}
			for _, sub := range parts {
				if len(sub) >= 2 {
					next = append(next, sub)
				}
			}
		}
		groups = next
	}
	return groups
}

// crossColJoin prepares a t[A] = t'[B] join: shared equality codes for
// both columns, a build-side index from code to rows of B, and the
// candidate-pair estimate Σᵢ |build[probe[i]]| (the estimate includes
// the i = j probes, which the executor skips).
func crossColJoin(rel *dataset.Relation, a, b int) (probe []int32, build map[int32][]int32, cand int64) {
	var ca, cb []int32
	if rel.Columns[a].Type.Numeric() {
		ca, cb = pli.MergedRanks(rel.Columns[a], rel.Columns[b])
	} else {
		ca, cb = pli.MergedCodes(rel.Columns[a], rel.Columns[b])
	}
	build = make(map[int32][]int32)
	for j, code := range cb {
		build[code] = append(build[code], int32(j))
	}
	for _, code := range ca {
		cand += int64(len(build[code]))
	}
	return ca, build, cand
}

// runPLI executes a prepared plan: candidate pairs from the equality
// join, residual predicates checked with early exit. Groups are handed
// to workers through an atomic cursor, so one giant cluster cannot
// starve the pool; the probe side is sharded by row like the scan.
func runPLI(plan *pliPlan, n int, mask []bool, workers, cap int) *collector {
	if plan.build == nil { // same-attribute join (groups may be empty)
		return runGroups(plan, n, mask, workers, cap)
	}
	return shardRows(n, workers, cap, func(c *collector, lo, hi int) {
		probeRange(c, lo, hi, plan, mask)
	})
}

func runGroups(plan *pliPlan, n int, mask []bool, workers, cap int) *collector {
	workers = max(min(clampWorkers(workers, n), len(plan.groups)), 1)
	cs := make([]*collector, workers)
	var cursor atomic.Int64
	par.Do(workers, workers, func(w int) {
		cs[w] = newCollector(n, cap)
		for k := int(cursor.Add(1)) - 1; k < len(plan.groups); k = int(cursor.Add(1)) - 1 {
			groupPairs(cs[w], plan, k, mask)
		}
	})
	return mergeCollectors(cs)
}

func groupPairs(c *collector, plan *pliPlan, k int, mask []bool) {
	g := plan.groups[k]
	if plan.groupRows != nil && plan.groupRows[k] != nil {
		// Pushed-down order driver: the group's rows are pre-sorted by
		// the driver's build-side value, so each probe row visits only
		// the contiguous run that satisfies the driver.
		rows, vals := plan.groupRows[k], plan.groupVals[k]
		for _, i32 := range g {
			i := int(i32)
			if mask != nil && !mask[i] {
				continue
			}
			lo, hi := rangeBounds(vals, plan.driverA.Num(i), plan.driver.op)
			for _, j32 := range rows[lo:hi] {
				j := int(j32)
				if j == i {
					continue
				}
				c.examined++
				sat := true
				for r := range plan.residual {
					if !plan.residual[r].eval(i, j) {
						sat = false
						break
					}
				}
				if sat {
					c.add(i, j)
				}
			}
		}
		return
	}
	for ai, i32 := range g {
		i := int(i32)
		if mask != nil && !mask[i] {
			continue
		}
		for bi, j32 := range g {
			if ai == bi {
				continue
			}
			j := int(j32)
			c.examined++
			if plan.driver != nil && !plan.driver.eval(i, j) {
				continue
			}
			sat := true
			for k := range plan.residual {
				if !plan.residual[k].eval(i, j) {
					sat = false
					break
				}
			}
			if sat {
				c.add(i, j)
			}
		}
	}
}

// ---- Range path ----------------------------------------------------------

// runRange executes a sorted-rank probe plan: each probe row's
// qualifying partners under the driver order predicate are found by
// binary search over the build column's value-ordered rows, and only
// residual predicates run per candidate. Sharded by probe row like the
// scan path.
func runRange(rp *rangeProbe, n int, mask []bool, workers, cap int) *collector {
	return shardRows(n, workers, cap, func(c *collector, lo, hi int) {
		rangeScan(c, lo, hi, rp, mask)
	})
}

func rangeScan(c *collector, lo, hi int, rp *rangeProbe, mask []bool) {
	for i := lo; i < hi; i++ {
		if mask != nil && !mask[i] {
			continue
		}
		klo, khi := rangeBounds(rp.keys, rp.av.Num(i), rp.driver.op)
		for _, j32 := range rp.rows[rp.starts[klo]:rp.starts[khi]] {
			j := int(j32)
			if j == i {
				continue
			}
			c.examined++
			sat := true
			for k := range rp.residual {
				if !rp.residual[k].eval(i, j) {
					sat = false
					break
				}
			}
			if sat {
				c.add(i, j)
			}
		}
	}
}

func probeRange(c *collector, lo, hi int, plan *pliPlan, mask []bool) {
	for i := lo; i < hi; i++ {
		if mask != nil && !mask[i] {
			continue
		}
		for _, j32 := range plan.build[plan.probe[i]] {
			j := int(j32)
			if j == i {
				continue
			}
			c.examined++
			sat := true
			for k := range plan.residual {
				if !plan.residual[k].eval(i, j) {
					sat = false
					break
				}
			}
			if sat {
				c.add(i, j)
			}
		}
	}
}
