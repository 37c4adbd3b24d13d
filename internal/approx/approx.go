// Package approx implements the approximation functions of the paper
// (Section 5) behind a single interface, so that the enumeration
// algorithm (package hitset) takes the semantics of "approximate" as an
// input rather than hard-wiring one definition — the paper's central
// design point.
//
// A valid approximation function f : (D, Sϕ) → [0, 1] must be monotonic
// (Definition 4.1) and indifferent to redundancy (Definition 4.2). The
// enumerator works with the loss 1 − f(D, Sϕ), and a DC is an ADC when
// the loss is at most ε (Definition 4.4).
//
// Because the miner identifies a DC ϕ with the hitting set Ŝϕ of the
// evidence set, the loss of every function here is computed from the
// multiset of *uncovered* distinct evidence sets — the violating tuple
// pairs. This makes indifference to redundancy structural: two DCs
// violated by the same pairs present identical inputs to Loss.
package approx

import (
	"fmt"
	"math"
	"math/bits"

	"adc/internal/bitset"
	"adc/internal/evidence"
)

// Func is a valid approximation function, presented as a loss.
// Loss returns 1 − f(D, Sϕ) for the DC whose violating distinct
// evidence sets are uncovered (indexes into ev). Implementations must be
// monotone: a sub-multiset of uncovered sets must never produce a larger
// loss.
type Func interface {
	// Name identifies the function ("f1", "f2", "f3-greedy", ...).
	Name() string
	// Loss returns 1 − f(D, Sϕ) ∈ [0, 1].
	Loss(ev *evidence.Set, uncovered []int) float64
	// NeedsVios reports whether the function consumes per-tuple
	// violation counts (the vios structure of Figure 2).
	NeedsVios() bool
}

// ForName returns the approximation function with the given name:
// "f1", "f2", or "f3" (the greedy algorithm of Figure 2).
func ForName(name string) (Func, error) {
	switch name {
	case "f1":
		return F1{}, nil
	case "f2":
		return F2{}, nil
	case "f3", "f3-greedy":
		return GreedyF3{}, nil
	}
	return nil, fmt.Errorf("approx: unknown approximation function %q", name)
}

// LossOfHittingSet evaluates f's loss for the DC whose complement
// predicates are hs. Convenience for tests and one-off scoring; the
// enumerator maintains the uncovered list incrementally instead.
func LossOfHittingSet(f Func, ev *evidence.Set, hs bitset.Bits) float64 {
	return f.Loss(ev, ev.Uncovered(hs))
}

// F1 is the pair-based function of Kivinen and Mannila's g1, used by
// AFASTDC, BFASTDC and DCFinder to define ADCs:
//
//	f1(D, Sϕ) = |{(t, t') satisfying ϕ}| / (|D|·(|D|−1))
//
// Loss is the fraction of ordered tuple pairs violating the DC.
type F1 struct{}

// Name implements Func.
func (F1) Name() string { return "f1" }

// NeedsVios implements Func.
func (F1) NeedsVios() bool { return false }

// Loss implements Func.
func (F1) Loss(ev *evidence.Set, uncovered []int) float64 {
	if ev.TotalPairs == 0 {
		return 0
	}
	var viol int64
	for _, k := range uncovered {
		viol += ev.Counts[k]
	}
	return float64(viol) / float64(ev.TotalPairs)
}

// F2 is the tuple-based function of Kivinen and Mannila's g2:
//
//	f2(D, Sϕ) = |{t | no t' forms a violating pair with t}| / |D|
//
// Loss is the fraction of tuples involved in at least one violation.
// Requires vios.
type F2 struct{}

// Name implements Func.
func (F2) Name() string { return "f2" }

// NeedsVios implements Func.
func (F2) NeedsVios() bool { return true }

// Loss implements Func.
func (F2) Loss(ev *evidence.Set, uncovered []int) float64 {
	if ev.NumRows == 0 {
		return 0
	}
	mustVios(ev, "f2")
	involved := make(map[int32]struct{})
	for _, k := range uncovered {
		for t := range ev.Vios[k] {
			involved[t] = struct{}{}
		}
	}
	return float64(len(involved)) / float64(ev.NumRows)
}

// GreedyF3 is the algorithm of Figure 2, standing in for the NP-hard
// cardinality-repair function f3 (computing f3 exactly for DCs is
// NP-hard, Livshits et al.; minimum vertex cover on the conflict graph
// is 2-approximable but needs the explicit pair list, which is quadratic
// in |D|). The greedy algorithm repeatedly takes the tuple participating
// in the most violations until the taken tuples cover the total
// violation count; Loss = |R| / |D|. Requires vios.
type GreedyF3 struct{}

// Name implements Func.
func (GreedyF3) Name() string { return "f3-greedy" }

// NeedsVios implements Func.
func (GreedyF3) NeedsVios() bool { return true }

// Loss implements Func.
func (g GreedyF3) Loss(ev *evidence.Set, uncovered []int) float64 {
	if ev.NumRows == 0 {
		return 0
	}
	mustVios(ev, "f3")
	// SortTuples of Figure 2: v(t) = total participation of t in
	// violations of the candidate DC; u = total violating pairs.
	var u int64
	v := make(map[int32]int64)
	for _, k := range uncovered {
		u += ev.Counts[k]
		for t, c := range ev.Vios[k] {
			v[t] += c
		}
	}
	counts := make([]int64, 0, len(v))
	for _, c := range v {
		counts = append(counts, c)
	}
	return g.TupleLoss(counts, u, ev.NumRows)
}

// TupleLoss is Loss from per-tuple violation counts: counts lists, in
// any order, how many violating pairs each tuple takes part in (0 for a
// tuple in none), u is the number of violating pairs, and rows is |D|.
// It takes tuples in decreasing order of participation until the taken
// participation covers u, and returns |R| / |D|. Only the multiset of
// counts matters, so ties need no order. Counts must not be negative;
// TupleLoss only reads them.
func (GreedyF3) TupleLoss(counts []int64, u int64, rows int) float64 {
	if u <= 0 || rows == 0 {
		return 0
	}
	// The greedy takes every tuple whose count exceeds t, the count of
	// the last tuple it takes, and as many of count t as the rest of u
	// needs. The covered count may exceed u because a violation between
	// two taken tuples is counted twice (see paper, Section 5). A radix
	// select finds t without sorting: its bit length first, then its
	// lower bits eight at a time. Throughout, the counts above the
	// current bucket (above of them, summing to sumAbove) are taken, and
	// sumAbove < u ≤ sumAbove + the bucket's sum.
	var above, sumAbove int64
	// pick takes whole buckets from the top while they leave u
	// uncovered, and returns the bucket t falls in.
	pick := func(num, sum []int64) int {
		d := len(sum) - 1
		for ; sumAbove+sum[d] < u; d-- {
			above += num[d]
			sumAbove += sum[d]
		}
		return d
	}
	var num, sum [65]int64 // by bit length; 0 holds the uninvolved
	for _, c := range counts {
		l := bits.Len64(uint64(c))
		num[l]++
		sum[l] += c
	}
	var total int64
	for _, s := range sum {
		total += s
	}
	if total < u { // every involved tuple is taken
		return float64(int64(len(counts))-num[0]) / float64(rows)
	}
	// t has bit length l: its bits above shift are prefix.
	l := pick(num[:], sum[:])
	prefix, shift := uint64(1), l-1
	for shift > 0 {
		low := max(shift-8, 0)
		var dnum, dsum [256]int64 // by the bits in [low, shift)
		for _, c := range counts {
			if v := uint64(c); v>>shift == prefix {
				d := v >> low & (1<<(shift-low) - 1)
				dnum[d]++
				dsum[d] += c
			}
		}
		d := pick(dnum[:1<<(shift-low)], dsum[:1<<(shift-low)])
		prefix, shift = prefix<<(shift-low)|uint64(d), low
	}
	t := int64(prefix)
	return float64(above+(u-sumAbove+t-1)/t) / float64(rows)
}

// F1Adjusted is the sample-side function f1′ of Section 7.2:
//
//	f1′ = (1 − p̂) − z · sqrt(p̂(1 − p̂)/n)
//
// where p̂ is the violating-pair fraction on the sample and
// n = |V_J|·(|V_J|−1) the number of ordered pairs. Mining the sample
// with f1′ and threshold ε accepts a DC only when, with probability at
// least 1 − α, it is an ADC of the full database w.r.t. f1 and ε
// (Inequality 2). Z is the normal quantile z_{1−2α}; package sample
// provides SampleZ to compute it.
type F1Adjusted struct {
	Z float64
}

// Name implements Func.
func (F1Adjusted) Name() string { return "f1-adjusted" }

// NeedsVios implements Func.
func (F1Adjusted) NeedsVios() bool { return false }

// Loss implements Func. Loss = 1 − f1′ = p̂ + z·sqrt(p̂(1−p̂)/n),
// clamped to [0, 1].
func (a F1Adjusted) Loss(ev *evidence.Set, uncovered []int) float64 {
	var viol int64
	for _, k := range uncovered {
		viol += ev.Counts[k]
	}
	return a.PairLoss(viol, ev.TotalPairs)
}

// PairLoss is Loss from the violating-pair count alone: viol of the
// total ordered pairs violate the DC.
func (a F1Adjusted) PairLoss(viol, total int64) float64 {
	if total == 0 {
		return 0
	}
	n := float64(total)
	p := float64(viol) / n
	loss := p + a.Z*math.Sqrt(p*(1-p)/n)
	if loss > 1 {
		return 1
	}
	if loss < 0 {
		return 0
	}
	return loss
}

func mustVios(ev *evidence.Set, fn string) {
	if !ev.HasVios() {
		panic("approx: " + fn + " requires an evidence set built with vios (per-tuple violation counts)")
	}
}
