package violation

import (
	"slices"
	"sort"

	"adc/internal/pli"
	"adc/internal/predicate"
)

// Plan shapes: the groupings of the grouped executor, and the scan.
// eqjoin and crossjoin both surface as Path "pli" in results (they join
// on equality clusters); range and scan surface under their own names.
const (
	ShapeEqJoin    = "eqjoin"    // groups of equal same-attribute values
	ShapeCrossJoin = "crossjoin" // t[A] = t'[B] merged-code buckets
	ShapeRange     = "range"     // all rows as one group, narrowed by a driver
	ShapeScan      = "scan"      // sharded refutation scan over all pairs
)

// advantage is the cost-heuristic margin: the grouped plan is chosen
// when its candidate pairs, scaled by this factor (its per-pair
// overhead over the scan's), still undercut the scan's pairs.
const advantage = 2

// PlanExplain is the printable query plan of one DC: the grouping the
// planner chose (or the scan), the equality cascade and the order
// predicate driving each group, the residual refutation order, and the
// planner's candidate-pair estimate against the pairs actually
// evaluated.
type PlanExplain struct {
	// Shape names the grouping: "eqjoin", "crossjoin", "range" (all
	// rows, with a driver), or "scan".
	Shape string `json:"shape"`
	// JoinCols lists the equality join cascade, most selective first
	// (column names for eqjoin; "A=B" for crossjoin).
	JoinCols []string `json:"join_cols,omitempty"`
	// Range is the driver: the order predicate each group's sorted
	// right side answers by binary search.
	Range string `json:"range,omitempty"`
	// Residual lists the remaining cross-tuple predicates in refutation
	// order (most selective first).
	Residual []string `json:"residual,omitempty"`
	// EstPairs is the planner's candidate-pair estimate from PLI
	// statistics: the grouping's selectivity times the driver's.
	// ActualPairs is the pairs the check evaluated: every candidate the
	// executor examined when it enumerated, or, when the DC was counted,
	// only the pairs evaluated to materialize the capped pair list.
	EstPairs    int64 `json:"est_pairs"`
	ActualPairs int64 `json:"actual_pairs"`
}

// queryPlan is the planner's decision for one DC: the grouped plan to
// run, or nil for the scan, and the explain skeleton (ActualPairs is
// filled per run from the collector).
type queryPlan struct {
	group   *groupPlan
	explain PlanExplain
}

// isOrderOp reports whether the operator is an inequality the sorted
// numeric PLI can answer by rank range.
func isOrderOp(op predicate.Operator) bool {
	switch op {
	case predicate.Lt, predicate.Leq, predicate.Gt, predicate.Geq:
		return true
	}
	return false
}

// predSel estimates the fraction of ordered tuple pairs (i, j), i ≠ j,
// that satisfy a cross-tuple predicate, from per-column PLI statistics
// (pli.ColStats and pli.ColHist — both available without building
// indexes). Same-column equality fractions are exact; order
// comparisons are counted exactly from the two value histograms (up to
// the ≤n diagonal pairs of a cross-column predicate); cross-column
// equality falls back to the standard 1/max(V_a, V_b) independence
// estimate.
func predSel(cache *pliCache, p compiledPred) float64 {
	sa := cache.store.StatsFor(p.a)
	if sa.Rows < 2 {
		return 1
	}
	if isOrderOp(p.op) && p.numeric {
		return orderSel(cache, p, sa)
	}
	realA := float64(sa.Rows-sa.NaNRows) / float64(sa.Rows)
	if p.a == p.b {
		eq := sa.EqFraction()
		switch p.op {
		case predicate.Eq:
			return eq
		default: // Neq
			return 1 - eq
		}
	}
	sb := cache.store.StatsFor(p.b)
	realB := float64(sb.Rows-sb.NaNRows) / float64(sb.Rows)
	v := max(sa.Distinct-sa.NaNRows, sb.Distinct-sb.NaNRows, 1)
	eq := realA * realB / float64(v)
	switch p.op {
	case predicate.Eq:
		return eq
	case predicate.Neq:
		return 1 - eq
	default:
		// Order comparison on a non-numeric operand: unanswerable by
		// rank, assume nothing refutes.
		return 1
	}
}

// orderSel computes the fraction of ordered pairs satisfying the order
// predicate t[A] op t'[B] by merging the two columns' value histograms:
// gt counts the value pairs with a > b and eq those with a = b, each
// weighted by cluster sizes. NaN rows are absent from the histograms
// and satisfy no order comparison, so they drop out on their own. The
// count is exact for same-column predicates (the all-equal diagonal is
// subtracted); cross-column predicates ignore the ≤n diagonal pairs —
// an O(1/n) error against an O(n²) denominator.
func orderSel(cache *pliCache, p compiledPred, sa pli.ColStats) float64 {
	ha := cache.store.HistFor(p.a)
	hb := ha
	nzA := float64(sa.Rows - sa.NaNRows)
	nzB := nzA
	if p.a != p.b {
		hb = cache.store.HistFor(p.b)
		sb := cache.store.StatsFor(p.b)
		nzB = float64(sb.Rows - sb.NaNRows)
	}
	var gt, eq float64
	var below float64 // b-rows strictly below the current a key
	j := 0
	for i, key := range ha.Keys {
		for j < len(hb.Keys) && hb.Keys[j] < key {
			below += float64(hb.Counts[j])
			j++
		}
		ca := float64(ha.Counts[i])
		gt += ca * below
		if j < len(hb.Keys) && hb.Keys[j] == key {
			eq += ca * float64(hb.Counts[j])
		}
	}
	lt := nzA*nzB - gt - eq
	if p.a == p.b {
		eq -= nzA // the diagonal (i, i) pairs are all equal-valued
	}
	total := float64(sa.Rows) * float64(sa.Rows-1)
	switch p.op {
	case predicate.Lt:
		return lt / total
	case predicate.Leq:
		return (lt + eq) / total
	case predicate.Gt:
		return gt / total
	default: // Geq
		return (gt + eq) / total
	}
}

// orderCross sorts the cross-tuple predicates in place by estimated
// cost-to-refute — lowest selectivity first, so the predicate most
// likely to refute a candidate pair runs first — and returns the
// estimates aligned with the sorted order. The static operator ranking
// (selRank) breaks ties, keeping the order deterministic when the
// statistics cannot separate two predicates.
func orderCross(cache *pliCache, cross []compiledPred) []float64 {
	sels := make([]float64, len(cross))
	for k, p := range cross {
		sels[k] = predSel(cache, p)
	}
	// Stable insertion sort; predicate lists are tiny.
	for i := 1; i < len(cross); i++ {
		for k := i; k > 0 && lessSel(sels[k], cross[k], sels[k-1], cross[k-1]); k-- {
			cross[k], cross[k-1] = cross[k-1], cross[k]
			sels[k], sels[k-1] = sels[k-1], sels[k]
		}
	}
	return sels
}

func lessSel(sa float64, a compiledPred, sb float64, b compiledPred) bool {
	if sa != sb {
		return sa < sb
	}
	return selRank(a.op) < selRank(b.op)
}

// rangeBounds returns the half-open index range [lo, hi) of the
// ascending vals whose entries x satisfy "v op x" — the right-side
// values a leading row with value v pairs with. NaN probes match
// nothing. The grouped executor narrows each group with it.
func rangeBounds(vals []float64, v float64, op predicate.Operator) (lo, hi int) {
	if v != v {
		return 0, 0
	}
	lower := sort.SearchFloat64s(vals, v)
	upper := lower + sort.Search(len(vals)-lower, func(k int) bool { return vals[lower+k] > v })
	switch op {
	case predicate.Lt: // x > v
		return upper, len(vals)
	case predicate.Leq: // x >= v
		return lower, len(vals)
	case predicate.Gt: // x < v
		return 0, lower
	default: // Geq: x <= v
		return 0, upper
	}
}

// estPairs scales a selectivity estimate to the relation's ordered-pair
// count, saturating instead of overflowing.
func estPairs(sel float64, n int) int64 {
	est := sel * float64(n) * float64(n-1)
	if est >= 1<<62 {
		return 1 << 62
	}
	if est < 0 {
		return 0
	}
	return int64(est)
}

// ---- Plan choice ---------------------------------------------------------

// maskedRows counts the rows that can lead a violating pair (all of
// them when there is no single-tuple mask).
func maskedRows(mask []bool, n int) int64 {
	if mask == nil {
		return int64(n)
	}
	var m int64
	for _, ok := range mask {
		if ok {
			m++
		}
	}
	return m
}

// prepareQueryPlan is the greedy planner: the grouped plan when its
// exact candidate pairs, scaled by advantage, undercut the scan's, and
// the scan otherwise. The driver's partners are counted only when the
// groups alone lose. A DC without an equality groups all rows, so it
// is first screened by its driver's estimate and never built when the
// estimate loses. Only masked rows lead pairs, on either side, so the
// estimate is scaled to them like the scan's cost.
func prepareQueryPlan(cache *pliCache, p *dcPlan, n int) *queryPlan {
	masked := maskedRows(p.mask, n)
	scanCost := masked * int64(n-1)
	if !slices.ContainsFunc(p.cross, func(q compiledPred) bool { return q.sameAttrEq() || q.crossColEq() }) {
		k := bestOrderPred(p.cross)
		if k < 0 || estPairs(p.sels[k]*float64(masked)/float64(max(n, 1)), n)*advantage > scanCost {
			return scanQueryPlan(p, n)
		}
	}
	gp := p.groupPlan(cache)
	if gp.pairBound(p.mask)*advantage <= scanCost || gp.candidates(p.mask)*advantage <= scanCost {
		return groupQueryPlan(gp)
	}
	return scanQueryPlan(p, n)
}

// bestOrderPred returns the position of the first order-keyed predicate
// of preds, which in greedy order is the most selective, or -1.
func bestOrderPred(preds []compiledPred) int {
	for k, p := range preds {
		if p.orderKeyed() {
			return k
		}
	}
	return -1
}

func groupQueryPlan(gp *groupPlan) *queryPlan {
	qp := &queryPlan{group: gp, explain: PlanExplain{
		Shape:    gp.shape,
		JoinCols: gp.joinCols,
		EstPairs: gp.estPairs,
		Residual: specStrings(gp.residual),
	}}
	if gp.driver != nil {
		qp.explain.Range = gp.driver.spec.String()
	}
	return qp
}

func scanQueryPlan(p *dcPlan, n int) *queryPlan {
	return &queryPlan{explain: PlanExplain{
		Shape:    ShapeScan,
		EstPairs: maskedRows(p.mask, n) * int64(n-1),
		Residual: specStrings(p.cross),
	}}
}

func specStrings(preds []compiledPred) []string {
	if len(preds) == 0 {
		return nil
	}
	out := make([]string, len(preds))
	for k, p := range preds {
		out[k] = p.spec.String()
	}
	return out
}

// pathName maps a plan shape to the coarse Path name results report
// (both join shapes report as "pli").
func pathName(shape string) string {
	switch shape {
	case ShapeEqJoin, ShapeCrossJoin:
		return PathPLI
	case ShapeRange:
		return PathRange
	}
	return PathScan
}
