package hitset

import (
	"sort"

	"adc/internal/approx"
	"adc/internal/evidence"
)

// tupleCount is one entry of a distinct evidence set's vios map.
type tupleCount struct {
	t int32
	c int64
}

// Evaluator computes enumeration losses for explicit lists of uncovered
// distinct evidence sets, with allocation-free fast paths for the
// built-in approximation functions: pair-counting functions (F1,
// F1Adjusted) reduce to one weighted sum, and the tuple-based ones (F2,
// GreedyF3) reuse a flattened vios representation and a scratch
// workspace instead of building maps per call. It is shared by
// ADCEnum/MMCS (this package) and the SearchMC baseline (package
// searchmc), so both sides of the paper's Figure 6 comparison pay the
// same per-evaluation cost.
//
// An Evaluator is bound to one evidence set and is not safe for
// concurrent use; the parallel enumerator gives each worker a fork of
// one evaluator, so the vios maps are flattened once per enumeration.
type Evaluator struct {
	ev *evidence.Set
	f  approx.Func

	// fastPair marks functions that depend only on the violating-pair
	// count (F1, F1Adjusted): their loss is a function of one int64.
	fastPair bool
	adjustZ  float64 // z of F1Adjusted; 0 for plain F1

	// fastTuple marks the built-in tuple-based functions (F2, GreedyF3):
	// per-tuple participation is evaluated from the flattened vios lists.
	fastTuple bool
	isF3      bool
	viosList  [][]tupleCount // per distinct set: (tuple, participation)
	scratch   []int64        // per-tuple delta workspace
	order     []int64        // reusable counts buffer for greedy f3
	generic   []int          // reusable sorted copy for custom functions
}

// NewEvaluator builds an evaluator for the approximation function over
// the evidence set. A nil function is allowed for exact (MMCS) runs,
// which never evaluate a loss.
func NewEvaluator(ev *evidence.Set, f approx.Func) *Evaluator {
	e := &Evaluator{ev: ev, f: f}
	switch fn := f.(type) {
	case approx.F1:
		e.fastPair = true
	case approx.F1Adjusted:
		e.fastPair = true
		e.adjustZ = fn.Z
	case approx.F2:
		e.initFastTuple(false)
	case approx.GreedyF3:
		e.initFastTuple(true)
	}
	return e
}

// initFastTuple flattens the vios maps into slices once, so per-call
// evaluation iterates arrays instead of maps.
func (e *Evaluator) initFastTuple(isF3 bool) {
	if !e.ev.HasVios() || e.ev.NumRows == 0 {
		return // generic path; the function will report the problem
	}
	e.fastTuple = true
	e.isF3 = isF3
	e.viosList = make([][]tupleCount, len(e.ev.Sets))
	e.scratch = make([]int64, e.ev.NumRows)
	for k, m := range e.ev.Vios {
		list := make([]tupleCount, 0, len(m))
		for t, c := range m {
			list = append(list, tupleCount{t, c})
		}
		e.viosList[k] = list
	}
}

// fork returns an evaluator for another worker of the same enumeration:
// it shares e's read-only flattened vios and has its own scratch space.
func (e *Evaluator) fork() *Evaluator {
	c := *e
	c.scratch = make([]int64, len(e.scratch))
	c.order, c.generic = nil, nil
	return &c
}

// LossOf returns 1 − f for the DC whose uncovered distinct sets are
// exactly setIdxs. The result is a pure function of the index set:
// callers may pass the list in any order. Built-in functions run
// allocation-free; custom functions see a sorted copy, so a
// traversal-order-sensitive implementation cannot make enumeration
// results depend on search history.
func (e *Evaluator) LossOf(setIdxs []int) float64 {
	if e.fastPair {
		var viol int64
		for _, k := range setIdxs {
			viol += e.ev.Counts[k]
		}
		return e.pairLoss(viol)
	}
	if e.fastTuple {
		return e.tupleLossOf(setIdxs)
	}
	e.generic = append(e.generic[:0], setIdxs...)
	sort.Ints(e.generic)
	return e.f.Loss(e.ev, e.generic)
}

// pairLoss maps a violating-pair count to the loss of F1, or of
// F1Adjusted when adjustZ is set.
func (e *Evaluator) pairLoss(viol int64) float64 {
	if e.adjustZ != 0 {
		return approx.F1Adjusted{Z: e.adjustZ}.PairLoss(viol, e.ev.TotalPairs)
	}
	if e.ev.TotalPairs == 0 {
		return 0
	}
	return float64(viol) / float64(e.ev.TotalPairs)
}

// tupleLossOf computes the F2 or greedy-F3 loss of exactly the given
// sets from the flattened vios lists, using the scratch workspace to
// avoid the per-call map allocation of the generic functions.
func (e *Evaluator) tupleLossOf(setIdxs []int) float64 {
	var touched []int32
	involved := 0
	var u int64
	for _, k := range setIdxs {
		u += e.ev.Counts[k]
		for _, tc := range e.viosList[k] {
			if e.scratch[tc.t] == 0 {
				involved++
				touched = append(touched, tc.t)
			}
			e.scratch[tc.t] += tc.c
		}
	}
	var result float64
	if !e.isF3 {
		result = float64(involved) / float64(e.ev.NumRows)
	} else {
		e.order = e.order[:0]
		for _, t := range touched {
			e.order = append(e.order, e.scratch[t])
		}
		result = approx.GreedyF3{}.TupleLoss(e.order, u, e.ev.NumRows)
	}
	for _, t := range touched {
		e.scratch[t] = 0
	}
	return result
}
