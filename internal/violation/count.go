package violation

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"adc/internal/dataset"
	"adc/internal/par"
	"adc/internal/pli"
	"adc/internal/predicate"
)

// The count phase answers a capped check (MaxPairs > 0) of a countable
// DC without visiting every violating pair. Rows are grouped as the
// DC's grouped plan groups them — by its same-attribute equalities, or
// all rows as one group when there are none — and within each group
// every tuple's out-degree (pairs it leads) and in-degree (pairs it
// follows) are computed in closed form, the single-tuple mask weighting
// the leading tuple. The f1/f2/f3 losses need only these counts. The
// pair list is then materialized from the smallest rows with a nonzero
// out-degree, in ascending order, so it holds the lexicographically
// smallest MaxPairs pairs, as enumeration returns them.
//
// A DC is countable when the cross-tuple predicates the grouping leaves
// are one of:
//   - none (a key, or a DC of single-tuple predicates only): every
//     ordered pair of a group violates;
//   - same-attribute ≠ only: a row's partners are its group minus the
//     rows sharing its value, refined by inclusion–exclusion over the
//     subsets of the ≠ columns when there are several;
//   - one or two same-attribute order predicates: a sweep over the
//     group sorted by the first, counting the second with a Fenwick
//     tree (dominance counting, as behind IEJoin).
//
// Every ordering these need depends on the plan alone, so it is built
// once per plan, in parallel over groups: each row's class under every
// non-empty subset of the ≠ columns, and each group's sweep points with
// the dense ranks of their order values. A check then makes linear
// passes only: class histograms for ≠, the two Fenwick sweeps for order
// predicates.

// countKind is the closed form a countable DC takes.
type countKind int

const (
	countAll   countKind = iota // no residual: every pair of a group
	countNeq                    // same-attribute ≠ residuals
	countOrder                  // one or two same-attribute order residuals
)

// maxCountNeq bounds the ≠ residuals counted by inclusion–exclusion,
// whose plan holds a class array per non-empty subset of them; a DC
// with more is enumerated.
const maxCountNeq = 4

// countPlan is the count phase prepared for one countable DC. Like the
// other plans it is built once per Checker and immutable afterwards:
// checks share it and never write its arrays.
type countPlan struct {
	kind countKind
	// residual is every cross-tuple predicate the grouping leaves; the
	// materialization evaluates them per candidate pair.
	residual []compiledPred
	// groups are the grouped plan's left sides: the rows agreeing on
	// every same-attribute equality, in groups of at least two, rows
	// ascending as PLI clusters list them. A DC with no such equality
	// has all rows as one group. offs[k] counts the rows of the groups
	// before k (the grouped plan's index space).
	groups [][]int32
	offs   []int
	// maxGroup is the largest group's size, the size of a worker's
	// scratch.
	maxGroup int
	// classes (countNeq) holds, for each non-empty subset s of the ≠
	// columns (bit c set for column c), every grouped row's class under
	// s: classes[s-1][offs[k]+p] for the row at position p of group k.
	// Two rows of a group share a class iff they agree on every column
	// of s. Class ids are dense per group, below the group's size.
	classes [][]int32
	// orderOps are the order residuals' operators (countOrder). Group
	// k's sweep points are [ptOffs[k], ptOffs[k+1]) of ptRows, ptR1 and
	// ptR2: its rows with no NaN order value in the grouped plan's sweep
	// order (ascending by the first order column, ties in row order),
	// and the dense ranks of their two order values among the group's
	// points (ptR2 repeats ptR1 with one order predicate). Ranks compare
	// as the values do, −0 equal to +0.
	orderOps           []predicate.Operator
	ptRows, ptR1, ptR2 []int32
	ptOffs             []int
	// memBytes is the plan's share of Checker.MemBytes (its groups and
	// offs are the grouped plan's, counted there), summed once at build.
	memBytes int64
}

// keyCol is one ≠ column's values as the refinement compares them:
// dictionary codes for strings, int64 for Int, IEEE equality for Float
// (NaN equals nothing, −0 equals +0). Exactly one slice is set.
type keyCol struct {
	codes  []int32
	ints   []int64
	floats []float64
}

// key returns row r's value as an equality key, or false for a NaN,
// which shares a class with no row.
func (k keyCol) key(r int32) (uint64, bool) {
	switch {
	case k.codes != nil:
		return uint64(k.codes[r]), true
	case k.ints != nil:
		return uint64(k.ints[r]), true
	}
	v := k.floats[r]
	if v != v {
		return 0, false
	}
	return pli.OrderKey(v), true
}

// prepareCountPlan returns the DC's count phase, or nil when the DC is
// not countable. Countability depends on the DC's predicates alone, not
// on the plan the planner picks for enumeration. A countable DC has no
// cross-column equality, so its grouped plan groups by same-attribute
// equalities or takes all rows. The orderings are built on up to
// workers goroutines.
func prepareCountPlan(cache *pliCache, p *dcPlan, workers int) *countPlan {
	cp := &countPlan{}
	for _, q := range p.cross {
		if !q.sameAttrEq() {
			cp.residual = append(cp.residual, q)
		}
	}
	cols := cache.rel.Columns
	var keys []keyCol
	var orderCols []*dataset.Column
	switch {
	case len(cp.residual) == 0:
		cp.kind = countAll
	case len(cp.residual) <= maxCountNeq && allPreds(cp.residual, compiledPred.sameAttrNeq):
		cp.kind = countNeq
		for _, q := range cp.residual {
			c := cols[q.a]
			switch c.Type {
			case dataset.String:
				keys = append(keys, keyCol{codes: c.Codes})
			case dataset.Int:
				keys = append(keys, keyCol{ints: c.Ints})
			default:
				keys = append(keys, keyCol{floats: c.Floats})
			}
		}
	case len(cp.residual) <= 2 && allPreds(cp.residual, func(q compiledPred) bool { return q.orderKeyed() && q.a == q.b }):
		cp.kind = countOrder
		for _, q := range cp.residual {
			orderCols = append(orderCols, cols[q.a])
			cp.orderOps = append(cp.orderOps, q.op)
		}
	default:
		return nil
	}
	gp := p.groupPlan(cache)
	cp.groups, cp.offs = gp.left, gp.offs
	for _, g := range cp.groups {
		cp.maxGroup = max(cp.maxGroup, len(g))
	}
	workers = cp.workers(workers, cache.rel.NumRows())
	bufs := make([][]classKey, workers)
	switch cp.kind {
	case countNeq:
		cp.classes = make([][]int32, 1<<len(keys)-1)
		for s := range cp.classes {
			cp.classes[s] = make([]int32, cp.offs[len(cp.groups)])
		}
		cp.eachGroup(workers, func(w, k int) { bufs[w] = cp.buildClasses(k, keys, bufs[w]) })
	case countOrder:
		// gp.right[k] is group k sorted by the driver, the first order
		// residual, with its NaN rows dropped.
		c2 := orderCols[len(orderCols)-1]
		cp.ptOffs = make([]int, len(cp.groups)+1)
		for k, sorted := range gp.right {
			cp.ptOffs[k+1] = cp.ptOffs[k]
			for _, r := range sorted {
				if v := c2.Num(int(r)); v == v {
					cp.ptOffs[k+1]++
				}
			}
		}
		points := cp.ptOffs[len(cp.groups)]
		cp.ptRows, cp.ptR1, cp.ptR2 = make([]int32, points), make([]int32, points), make([]int32, points)
		cp.eachGroup(workers, func(w, k int) {
			bufs[w] = cp.buildPoints(k, gp.right[k], orderCols[0], c2, bufs[w])
		})
	}
	cp.memBytes = sideBytes(cp.classes) + int64(len(cp.ptRows)+len(cp.ptR1)+len(cp.ptR2))*4 + int64(len(cp.ptOffs))*8
	return cp
}

func allPreds(preds []compiledPred, ok func(compiledPred) bool) bool {
	for _, p := range preds {
		if !ok(p) {
			return false
		}
	}
	return true
}

// workers resolves a check's worker count for the plan: at most one
// per group.
func (cp *countPlan) workers(workers, n int) int {
	return max(min(clampWorkers(workers, n), len(cp.groups)), 1)
}

// eachGroup calls fn(w, k) for every group k on workers goroutines,
// which take groups through an atomic cursor; w identifies the
// goroutine, so fn may use per-worker scratch.
func (cp *countPlan) eachGroup(workers int, fn func(w, k int)) {
	var cursor atomic.Int64
	par.Do(workers, workers, func(w int) {
		for k := int(cursor.Add(1)) - 1; k < len(cp.groups); k = int(cursor.Add(1)) - 1 {
			fn(w, k)
		}
	})
}

// classKey is a key of the row or sweep point at position pos of a
// group: an equality key, or an order key (pli.OrderKey).
type classKey struct {
	key uint64
	pos int32
}

// denseIDs sorts keys and numbers their distinct values from 0 up in
// ascending order, writing each position's number to ids; it returns
// the next free one.
func denseIDs(keys []classKey, ids []int32) int32 {
	slices.SortFunc(keys, func(a, b classKey) int { return cmp.Compare(a.key, b.key) })
	next := int32(0)
	for x, k := range keys {
		if x > 0 && k.key != keys[x-1].key {
			next++
		}
		ids[k.pos] = next
	}
	if len(keys) > 0 {
		next++
	}
	return next
}

// buildClasses writes group k's classes under every non-empty subset
// of the ≠ columns, in increasing order of s. A one-column subset
// numbers the column's keys, each NaN row in a class of its own; a
// larger one refines the classes of s without its lowest column by
// that column's classes, both already built. buf is scratch, returned
// for reuse.
func (cp *countPlan) buildClasses(k int, keys []keyCol, buf []classKey) []classKey {
	g := cp.groups[k]
	lo, hi := cp.offs[k], cp.offs[k+1]
	for s := 1; s <= len(cp.classes); s++ {
		ids := cp.classes[s-1][lo:hi]
		low := bits.TrailingZeros(uint(s))
		buf = buf[:0]
		if rest := s &^ (1 << low); rest != 0 {
			a, b := cp.classes[rest-1][lo:hi], cp.classes[1<<low-1][lo:hi]
			for p := range g {
				buf = append(buf, classKey{key: uint64(a[p])<<32 | uint64(b[p]), pos: int32(p)})
			}
			denseIDs(buf, ids)
			continue
		}
		for p, r := range g {
			if v, ok := keys[low].key(r); ok {
				buf = append(buf, classKey{key: v, pos: int32(p)})
			}
		}
		next := denseIDs(buf, ids)
		if len(buf) < len(g) {
			for p, r := range g {
				if _, ok := keys[low].key(r); !ok {
					ids[p] = next
					next++
				}
			}
		}
	}
	return buf
}

// buildPoints writes group k's sweep points from its rows sorted by c1:
// the rows whose c2 value is not NaN, r1 numbering the runs of equal c1
// values and r2 the distinct c2 values in ascending order (r1 again
// when c2 is c1). buf is scratch, returned for reuse.
func (cp *countPlan) buildPoints(k int, sorted []int32, c1, c2 *dataset.Column, buf []classKey) []classKey {
	lo, hi := cp.ptOffs[k], cp.ptOffs[k+1]
	rows, r1, r2 := cp.ptRows[lo:hi], cp.ptR1[lo:hi], cp.ptR2[lo:hi]
	buf = buf[:0]
	x := 0
	for _, r := range sorted {
		v2 := c2.Num(int(r))
		if v2 != v2 {
			continue
		}
		rows[x] = r
		if x > 0 {
			r1[x] = r1[x-1]
			if c1.Num(int(r)) != c1.Num(int(rows[x-1])) {
				r1[x]++
			}
		}
		buf = append(buf, classKey{key: pli.OrderKey(v2), pos: int32(x)})
		x++
	}
	if c2 == c1 {
		copy(r2, r1)
	} else {
		denseIDs(buf, r2)
	}
	return buf
}

// firstRow is a row with a nonzero out-degree: a candidate leader of
// the first MaxPairs pairs.
type firstRow struct {
	row, group int32
	out        int64
}

// countWorker is one goroutine's state: its share of the violation
// total, its smallest rows with a nonzero out-degree (at most maxRows),
// and scratch reused across groups, allocated once at the plan's
// largest group size.
type countWorker struct {
	maxRows    int
	size       int
	violations int64
	first      []firstRow

	out, in   []int64
	cls, mcls []int64
	masked    []int32
	identity  []int32
	fenwick   []int64
}

// scratch returns s with length n ≤ size and every element zero,
// allocating it at capacity size on first use.
func scratch[T any](s []T, n, size int) []T {
	if cap(s) < size {
		return make([]T, n, size)
	}
	s = s[:n]
	clear(s)
	return s
}

// count runs the count phase: exact per-tuple counts and violation
// total, and the first maxPairs violating pairs. Groups are disjoint,
// so workers write their rows' counts in place.
func (cp *countPlan) count(n int, mask []bool, workers, maxPairs int) *collector {
	col := &collector{counts: make([]int64, n)}
	ws := make([]countWorker, cp.workers(workers, n))
	cp.eachGroup(len(ws), func(w, k int) {
		cw := &ws[w]
		cw.maxRows, cw.size = maxPairs, cp.maxGroup
		switch cp.kind {
		case countAll:
			cp.countAll(cw, k, mask, col.counts)
		case countNeq:
			cp.countNeq(cw, k, mask, col.counts)
		default:
			cp.countOrder(cw, k, mask, col.counts)
		}
	})
	var first []firstRow
	for w := range ws {
		col.violations += ws[w].violations
		first = append(first, ws[w].first...)
	}
	slices.SortFunc(first, func(a, b firstRow) int { return cmp.Compare(a.row, b.row) })
	cp.materialize(col, first[:min(len(first), maxPairs)], maxPairs)
	return col
}

// materialize evaluates the residual predicates from each leading row
// to its group's rows, in ascending order, until maxPairs pairs are
// listed. A row stops once its out-degree's partners are found.
func (cp *countPlan) materialize(col *collector, first []firstRow, maxPairs int) {
	for _, f := range first {
		i := int(f.row)
		found := int64(0)
		for _, j32 := range cp.groups[f.group] {
			j := int(j32)
			if j == i {
				continue
			}
			col.examined++
			if !holds(cp.residual, i, j) {
				continue
			}
			col.pairs = append(col.pairs, [2]int{i, j})
			if len(col.pairs) == maxPairs {
				return
			}
			if found++; found == f.out {
				break
			}
		}
	}
}

func holds(preds []compiledPred, i, j int) bool {
	for k := range preds {
		if !preds[k].eval(i, j) {
			return false
		}
	}
	return true
}

// emit records one row's counts: out + in into the shared counts (rows
// of different groups never collide), out into the violation total and,
// when nonzero, the row into the bounded list of smallest leaders.
func (w *countWorker) emit(counts []int64, row int32, group int, out, in int64) {
	counts[row] = out + in
	if out == 0 {
		return
	}
	w.violations += out
	f := w.first
	if len(f) == w.maxRows && row > f[len(f)-1].row {
		return
	}
	at := sort.Search(len(f), func(k int) bool { return f[k].row > row })
	if len(f) < w.maxRows {
		f = append(f, firstRow{})
	}
	copy(f[at+1:], f[at:len(f)-1])
	f[at] = firstRow{row: row, group: int32(group), out: out}
	w.first = f
}

// bit is 1 when the row may lead a violating pair under the mask.
func bit(mask []bool, row int32) int64 {
	if mask == nil || mask[row] {
		return 1
	}
	return 0
}

func maskedIn(rows []int32, mask []bool) int64 {
	if mask == nil {
		return int64(len(rows))
	}
	var m int64
	for _, r := range rows {
		m += bit(mask, r)
	}
	return m
}

// countAll: every row of the group leads a pair with each other row
// when its mask allows, and follows every other masked row.
func (cp *countPlan) countAll(w *countWorker, k int, mask []bool, counts []int64) {
	g := cp.groups[k]
	m := int64(len(g))
	masked := maskedIn(g, mask)
	for _, r := range g {
		mk := bit(mask, r)
		w.emit(counts, r, k, mk*(m-1), masked-mk)
	}
}

// countNeq counts pairs differing on every ≠ column by inclusion–
// exclusion: over each subset S of the columns (S = ∅ included), the
// rows agreeing with a row on all of S form its class under S, counted
// with sign (−1)^|S| from a histogram of the group's classes. A row is
// in each of its classes, and the signs over the subsets sum to 0, so
// the row itself drops out of its own count.
func (cp *countPlan) countNeq(w *countWorker, k int, mask []bool, counts []int64) {
	g := cp.groups[k]
	m := len(g)
	w.out, w.in = scratch(w.out, m, w.size), scratch(w.in, m, w.size)
	out, in := w.out, w.in
	masked := maskedIn(g, mask)
	for p := range g {
		out[p], in[p] = int64(m), masked // S = ∅: the whole group
	}
	lo, hi := cp.offs[k], cp.offs[k+1]
	for s, classes := range cp.classes {
		sign := int64(1)
		if bits.OnesCount(uint(s+1))%2 == 1 {
			sign = -1
		}
		ids := classes[lo:hi]
		w.cls, w.mcls = scratch(w.cls, m, w.size), scratch(w.mcls, m, w.size)
		cls, mcls := w.cls, w.mcls
		for p, c := range ids {
			cls[c]++
			mcls[c] += bit(mask, g[p])
		}
		for p, c := range ids {
			out[p] += sign * cls[c]
			in[p] += sign * mcls[c]
		}
	}
	for p, r := range g {
		w.emit(counts, r, k, bit(mask, r)*out[p], in[p])
	}
}

// countOrder counts pairs satisfying one or two same-attribute order
// predicates over the group's sweep points (rows with a NaN order value
// satisfy no order comparison and have none). They are swept twice:
// out-degrees query the masked points against all points, in-degrees
// all points against the masked ones with the operators flipped. A row
// pairs with itself only when every operator is non-strict; that pair
// is taken back off.
func (cp *countPlan) countOrder(w *countWorker, k int, mask []bool, counts []int64) {
	lo, hi := cp.ptOffs[k], cp.ptOffs[k+1]
	rows, r1, r2 := cp.ptRows[lo:hi], cp.ptR1[lo:hi], cp.ptR2[lo:hi]
	w.out, w.in = scratch(w.out, len(rows), w.size), scratch(w.in, len(rows), w.size)
	w.identity, w.masked = scratch(w.identity, 0, w.size), scratch(w.masked, 0, w.size)
	for p, r := range rows {
		w.identity = append(w.identity, int32(p))
		if bit(mask, r) == 1 {
			w.masked = append(w.masked, int32(p))
		}
	}
	two := len(cp.orderOps) == 2
	op1, op2 := cp.orderOps[0], predicate.Geq // op2 is unused with one predicate
	if two {
		op2 = cp.orderOps[1]
	}
	w.sweep(r1, r2, w.out, w.masked, w.identity, op1, op2, two)
	w.sweep(r1, r2, w.in, w.identity, w.masked, flipOp(op1), flipOp(op2), two)
	if !strictOp(op1) && (!two || !strictOp(op2)) {
		for _, p := range w.masked {
			w.out[p]--
			w.in[p]--
		}
	}
	for p, r := range rows {
		w.emit(counts, r, k, w.out[p], w.in[p])
	}
}

// sweep adds to cnt[q], for every position q of qs, the number of
// positions d of ds with v1(q) op1 v1(d) and, when two, v2(q) op2
// v2(d), comparing the points' ranks r1 and r2. Both lists ascend by
// r1, so the partners under op1 form a prefix (for > and ≥) or a suffix
// (for < and ≤) that only grows as the sweep moves away from it; a
// Fenwick tree over r2 counts the inserted partners satisfying op2.
func (w *countWorker) sweep(r1, r2 []int32, cnt []int64, qs, ds []int32, op1, op2 predicate.Operator, two bool) {
	asc := op1 == predicate.Gt || op1 == predicate.Geq
	strict := strictOp(op1)
	if two {
		// Ranks lie below the point count, so the tree needs that many.
		w.fenwick = scratch(w.fenwick, len(r1)+1, w.size+1)
	}
	inserted := 0
	for t := range qs {
		q := qs[t]
		if !asc {
			q = qs[len(qs)-1-t]
		}
		for inserted < len(ds) {
			d := ds[inserted]
			if !asc {
				d = ds[len(ds)-1-inserted]
			}
			x, y := r1[d], r1[q]
			if x == y && strict || asc && x > y || !asc && x < y {
				break
			}
			if two {
				for r := int(r2[d]) + 1; r < len(w.fenwick); r += r & -r {
					w.fenwick[r]++
				}
			}
			inserted++
		}
		if !two {
			cnt[q] += int64(inserted)
			continue
		}
		lo, hi := rankRange(int(r2[q]), len(r1), op2)
		cnt[q] += w.prefix(hi) - w.prefix(lo)
	}
}

// rankRange returns the ranks [lo, hi) of the values x with "v op x",
// for v of rank r among ranks below n.
func rankRange(r, n int, op predicate.Operator) (lo, hi int) {
	switch op {
	case predicate.Lt: // x > v
		return r + 1, n
	case predicate.Leq: // x >= v
		return r, n
	case predicate.Gt: // x < v
		return 0, r
	}
	return 0, r + 1 // Geq: x <= v
}

// prefix sums the Fenwick tree's first n ranks.
func (w *countWorker) prefix(n int) int64 {
	var s int64
	for r := n; r > 0; r -= r & -r {
		s += w.fenwick[r]
	}
	return s
}

func strictOp(op predicate.Operator) bool { return op == predicate.Lt || op == predicate.Gt }

// flipOp swaps an order operator's operands: a op b iff b flipOp(op) a.
func flipOp(op predicate.Operator) predicate.Operator {
	switch op {
	case predicate.Lt:
		return predicate.Gt
	case predicate.Gt:
		return predicate.Lt
	case predicate.Leq:
		return predicate.Geq
	}
	return predicate.Leq
}
