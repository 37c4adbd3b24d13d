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

// ---- Grouped path --------------------------------------------------------

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

// groupPlan is the grouped join of one DC, the one enumerating
// executor besides the scan. A leading row i of group k pairs with the
// rows of the group's right side that satisfy the driver with it, and
// only those candidates evaluate the residual. Every DC has exactly one
// grouping:
//
//   - eqjoin: the rows agreeing on every same-attribute equality (their
//     PLI clusters intersected), each group its own right side;
//   - crossjoin: the merged-code buckets of the most selective
//     cross-column equality t[A] = t'[B], A-rows left and B-rows right;
//   - all rows as one group: range when a driver narrows it. Without a
//     driver it pairs like the scan and reports as the scan; the
//     planner never runs it, and the count phase reads its group.
//
// The driver is the residual's most selective order-keyed predicate.
// Each group's right side is sorted by the driver's t' column once, at
// plan build, so a leading row's partners under it are one contiguous
// run found by binary search (rangeBounds). The plan is immutable once
// built.
type groupPlan struct {
	shape string
	// left lists each group's leading rows, ascending. offs[k] counts
	// the left rows of the groups before k: the index space the
	// executor hands out in chunks.
	left [][]int32
	offs []int
	// right lists each group's partner rows: sorted by the driver's t'
	// value with NaN rows dropped (sortByValue), those values in vals;
	// without a driver, the left rows again, or a crossjoin bucket's
	// B-rows in row order.
	right [][]int32
	vals  [][]float64
	// keys are the equalities the grouping answers. The driver, with
	// driverA its t column, narrows each group; residual holds the
	// predicates every candidate pair still evaluates, most selective
	// first.
	keys     []compiledPred
	driver   *compiledPred
	driverA  *dataset.Column
	residual []compiledPred
	// estPairs is the candidate estimate from column statistics before
	// the build: the grouping's selectivity times the driver's.
	estPairs int64
	joinCols []string
	// memBytes is the plan's share of Checker.MemBytes, summed once at
	// build.
	memBytes int64
}

// prepareGroupPlan groups the DC's rows and sorts each group's right
// side by the driver. Same-attribute equalities are preferred: all of
// them cascade into one composite key, most selective column first so
// intermediate groups shrink fastest. Otherwise the cross-column
// equality with the lowest estimated selectivity buckets the rows; with
// neither, all rows form one group. cross must already be in greedy
// order with sels aligned (orderCross).
func prepareGroupPlan(cache *pliCache, cross []compiledPred, sels []float64) *groupPlan {
	rel := cache.rel
	n := rel.NumRows()
	gp := &groupPlan{shape: ShapeRange}
	sel := 1.0
	var eqCols []int
	best := -1
	for k, p := range cross {
		switch {
		case p.sameAttrEq():
			gp.keys = append(gp.keys, p)
			if !slices.Contains(eqCols, p.a) {
				eqCols = append(eqCols, p.a)
			}
		case p.crossColEq() && (best < 0 || sels[k] < sels[best]):
			best = k
		}
	}
	switch {
	case len(eqCols) > 0:
		// EqFraction is exact per column; the composite estimate
		// assumes independence.
		slices.SortStableFunc(eqCols, func(a, b int) int {
			return cmp.Compare(cache.store.StatsFor(a).EqFraction(), cache.store.StatsFor(b).EqFraction())
		})
		gp.shape = ShapeEqJoin
		for _, col := range eqCols {
			sel *= cache.store.StatsFor(col).EqFraction()
			gp.joinCols = append(gp.joinCols, rel.Columns[col].Name)
		}
		gp.left = sameAttrGroups(cache, eqCols)
	case best >= 0:
		bp := cross[best]
		gp.shape = ShapeCrossJoin
		gp.keys = []compiledPred{bp}
		sel = sels[best]
		gp.joinCols = []string{rel.Columns[bp.a].Name + "=" + rel.Columns[bp.b].Name}
		gp.left, gp.right = crossColJoin(rel, bp.a, bp.b)
	default:
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		gp.left = [][]int32{all}
	}
	if gp.right == nil {
		gp.right = gp.left
	}
	gp.offs = make([]int, len(gp.left)+1)
	for k, g := range gp.left {
		gp.offs[k+1] = gp.offs[k] + len(g)
	}

	driver := -1
	for k, p := range cross {
		switch {
		case p.sameAttrEq(), k == best && gp.shape == ShapeCrossJoin:
			// answered by the grouping
		case driver < 0 && p.orderKeyed():
			driver = k
		default:
			gp.residual = append(gp.residual, p)
		}
	}
	if driver >= 0 {
		d := cross[driver]
		sel *= sels[driver]
		gp.driver = &d
		gp.driverA = rel.Columns[d.a]
		gp.right, gp.vals = sortSides(gp.right, rel.Columns[d.b])
	} else if gp.shape == ShapeRange {
		gp.shape = ShapeScan
	}
	gp.estPairs = estPairs(sel, n)
	gp.memBytes = int64(len(gp.offs))*8 + sideBytes(gp.left)
	if gp.driver != nil || gp.shape == ShapeCrossJoin {
		gp.memBytes += sideBytes(gp.right) // not the left rows again
	}
	for _, v := range gp.vals {
		gp.memBytes += int64(len(v))*8 + 24
	}
	return gp
}

// sideBytes is the footprint of a plan's row lists: 4 bytes a row and
// a slice header a group.
func sideBytes(side [][]int32) int64 {
	var b int64
	for _, g := range side {
		b += int64(len(g))*4 + 24
	}
	return b
}

// chunksPerWorker is how many chunks of left rows the executor cuts per
// worker, so that groups of unequal cost still even out.
const chunksPerWorker = 8

// run enumerates the plan's candidate pairs and collects those the
// residual admits. The left rows of all groups form one index space,
// handed out through an atomic cursor in chunks of about
// rows/(workers·chunksPerWorker): one giant group, such as the single
// group of the range shape, is split across every worker, and a chunk
// may span many small groups.
func (gp *groupPlan) run(n int, mask []bool, workers, cap int) *collector {
	rows := gp.offs[len(gp.left)]
	workers = clampWorkers(workers, rows)
	parts := workers * chunksPerWorker
	chunk := (rows + parts - 1) / parts
	cs := make([]*collector, workers)
	var cursor atomic.Int64
	par.Do(workers, workers, func(w int) {
		cs[w] = newCollector(n, cap)
		for lo := int(cursor.Add(int64(chunk))) - chunk; lo < rows; lo = int(cursor.Add(int64(chunk))) - chunk {
			gp.runChunk(cs[w], lo, min(lo+chunk, rows), mask)
		}
	})
	return mergeCollectors(cs)
}

// runChunk runs the left rows at positions [lo, hi) of the index space.
func (gp *groupPlan) runChunk(c *collector, lo, hi int, mask []bool) {
	k := sort.SearchInts(gp.offs, lo+1) - 1 // the group holding position lo
	for pos := lo; pos < hi; pos++ {
		for pos >= gp.offs[k+1] {
			k++
		}
		i := int(gp.left[k][pos-gp.offs[k]])
		if mask != nil && !mask[i] {
			continue
		}
		for _, j32 := range gp.partners(k, i) {
			j := int(j32)
			if j == i {
				continue
			}
			c.examined++
			if holds(gp.residual, i, j) {
				c.add(i, j)
			}
		}
	}
}

// partners returns the rows of group k's right side that satisfy the
// driver with leading row i: a contiguous run of the sorted side.
func (gp *groupPlan) partners(k, i int) []int32 {
	if gp.driver == nil {
		return gp.right[k]
	}
	lo, hi := rangeBounds(gp.vals[k], gp.driverA.Num(i), gp.driver.op)
	return gp.right[k][lo:hi]
}

// candidates counts the pairs run hands to the residual: every masked
// leading row's partners, itself excluded. Row i is among its own
// partners exactly when the pair (i, i) satisfies the grouping's
// equalities and the driver. With a driver this binary-searches every
// leading row, so the planner calls it only when pairBound does not
// already decide.
func (gp *groupPlan) candidates(mask []bool) int64 {
	var cand int64
	for k, g := range gp.left {
		for _, i32 := range g {
			i := int(i32)
			if mask != nil && !mask[i] {
				continue
			}
			cand += int64(len(gp.partners(k, i)))
			if holds(gp.keys, i, i) && (gp.driver == nil || gp.driver.eval(i, i)) {
				cand--
			}
		}
	}
	return cand
}

// pairBound bounds candidates from above without the driver: every
// masked leading row against its group's whole right side.
func (gp *groupPlan) pairBound(mask []bool) int64 {
	var b int64
	for k, g := range gp.left {
		b += maskedIn(g, mask) * int64(len(gp.right[k]))
	}
	return b
}

// sortSides returns the rows of each side whose value in c is not NaN
// (NaN satisfies no order comparison), sorted by that value, ties in
// row order, with those values: the order in which the grouped
// executor binary-searches a group's right side and the count phase
// sweeps a group. The sides must be disjoint; then one radix ordering
// of all their rows (pli.Order), dealt out side by side, sorts every
// side at once, in time linear in the rows for any number of sides.
func sortSides(sides [][]int32, c *dataset.Column) ([][]int32, [][]float64) {
	sideOf := make([]int32, c.Len())
	for k, g := range sides {
		for _, r := range g {
			sideOf[r] = int32(k) + 1
		}
	}
	// The rows go to the ordering ascending, so that it leaves ties in
	// row order; ends[k+1] counts side k's rows, then becomes the end of
	// its share of one backing array.
	var rows []int32
	ends := make([]int, len(sides)+1)
	for r, k := range sideOf {
		if k == 0 {
			continue
		}
		if v := c.Num(r); v == v {
			rows = append(rows, int32(r))
			ends[k]++
		}
	}
	sorted := pli.Order(c, rows)
	right, vals := make([][]int32, len(sides)), make([][]float64, len(sides))
	buf, vbuf := make([]int32, len(sorted)), make([]float64, len(sorted))
	for k := range sides {
		lo := ends[k]
		ends[k+1] += lo
		right[k], vals[k] = buf[lo:lo:ends[k+1]], vbuf[lo:lo:ends[k+1]]
	}
	for _, r := range sorted {
		k := sideOf[r] - 1
		right[k] = append(right[k], r)
		vals[k] = append(vals[k], c.Num(int(r)))
	}
	return right, vals
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

// crossColJoin buckets a t[A] = t'[B] join by the two columns' merged
// equality codes, which are dense: a counting sort lists each code's
// A-rows and B-rows in row order, and every code holding both becomes
// one group, its A-rows on the left and its B-rows on the right.
func crossColJoin(rel *dataset.Relation, a, b int) (left, right [][]int32) {
	var ca, cb []int32
	if rel.Columns[a].Type.Numeric() {
		ca, cb = pli.MergedRanks(rel.Columns[a], rel.Columns[b])
	} else {
		ca, cb = pli.MergedCodes(rel.Columns[a], rel.Columns[b])
	}
	size := int32(0)
	for _, codes := range [][]int32{ca, cb} {
		for _, c := range codes {
			size = max(size, c+1)
		}
	}
	rowsA, startA := bucketRows(ca, size)
	rowsB, startB := bucketRows(cb, size)
	for c := range size {
		if startA[c] < startA[c+1] && startB[c] < startB[c+1] {
			left = append(left, rowsA[startA[c]:startA[c+1]])
			right = append(right, rowsB[startB[c]:startB[c+1]])
		}
	}
	return left, right
}

// bucketRows counting-sorts the rows by their codes in [0, size):
// rows[start[c]:start[c+1]] are the rows of code c, ascending.
func bucketRows(codes []int32, size int32) (rows, start []int32) {
	start = make([]int32, size+1)
	for _, c := range codes {
		start[c+1]++
	}
	for c := range size {
		start[c+1] += start[c]
	}
	next := slices.Clone(start[:size])
	rows = make([]int32, len(codes))
	for r, c := range codes {
		rows[next[c]] = int32(r)
		next[c]++
	}
	return rows, start
}
