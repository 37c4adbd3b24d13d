// Package searchmc implements SearchMinimalCovers, the DC-discovery
// search used by FASTDC/AFASTDC (Chu et al.) and retained by BFASTDC and
// DCFinder, which the paper compares ADCEnum against (Figures 6 and 9).
//
// The search enumerates predicate covers depth-first: at each node the
// remaining (uncovered) evidence sets define a weighted coverage score
// per candidate predicate; candidates are tried in descending coverage,
// each recursion restricted to the candidates after the chosen one
// (so every subset is explored once). The approximate variant stops as
// soon as the uncovered violation loss drops to the threshold ε — the
// AFASTDC modification of the base case — rather than at zero.
//
// Compared with ADCEnum, this baseline lacks the canHit bookkeeping, the
// WillCover optimistic pruning, and the crit-based minimality pruning;
// it instead re-checks minimality of every accepted cover explicitly.
// That asymmetry is precisely what the paper's Figure 6 measures.
package searchmc

import (
	"sort"

	"adc/internal/approx"
	"adc/internal/bitset"
	"adc/internal/evidence"
	"adc/internal/hitset"
)

// Stats reports the search effort.
type Stats struct {
	Nodes     int64
	Outputs   int64
	LossEvals int64
}

// Options configures the search.
type Options struct {
	// Func is the approximation function (AFASTDC hard-wires f1; this
	// reimplementation accepts any, for the Figure 8-style comparisons).
	Func approx.Func
	// Epsilon is the approximation threshold.
	Epsilon float64
	// MaxPredicates bounds cover size; 0 means unbounded.
	MaxPredicates int
}

type searcher struct {
	ev    *evidence.Set
	opts  Options
	emit  func(bitset.Bits)
	stats Stats

	// eval shares hitset's loss-evaluation split: pair-counting and
	// tuple-based built-ins run allocation-free instead of through the
	// generic map-building Func.Loss, so the Figure 6 comparison
	// measures search strategy rather than loss-evaluation overhead.
	eval *hitset.Evaluator

	found []bitset.Bits // accepted minimal covers, for subset pruning
	path  bitset.Bits
	elems []int
}

// Search runs the minimal-cover search and calls emit once per minimal
// approximate cover (hitting set). The bitset passed to emit is owned by
// the callee.
func Search(ev *evidence.Set, opts Options, emit func(hs bitset.Bits)) Stats {
	universe := 0
	if ev.Space != nil {
		universe = ev.Space.Size()
	} else {
		for _, s := range ev.Sets {
			if n := len(s) * 64; n > universe {
				universe = n
			}
		}
	}
	s := &searcher{
		ev:   ev,
		opts: opts,
		emit: emit,
		eval: hitset.NewEvaluator(ev, opts.Func),
		path: bitset.New(universe),
	}
	all := make([]int, universe)
	for i := range all {
		all[i] = i
	}
	uncovered := make([]int, len(ev.Sets))
	for i := range uncovered {
		uncovered[i] = i
	}
	s.search(all, uncovered)
	return s.stats
}

func (s *searcher) loss(uncovered []int) float64 {
	s.stats.LossEvals++
	return s.eval.LossOf(uncovered)
}

func (s *searcher) search(cands, uncovered []int) {
	s.stats.Nodes++
	// Subset pruning: a path containing an accepted cover cannot yield a
	// new minimal cover.
	for _, f := range s.found {
		if s.path.ContainsAll(f) {
			return
		}
	}
	// AFASTDC base case: accept when the loss reaches the threshold.
	if s.loss(uncovered) <= s.opts.Epsilon {
		s.accept(uncovered)
		return
	}
	if len(cands) == 0 {
		return
	}
	if s.opts.MaxPredicates > 0 && len(s.elems) >= s.opts.MaxPredicates {
		return
	}
	// Order candidates by weighted coverage of the remaining sets.
	type scored struct {
		pred  int
		cover int64
	}
	order := make([]scored, 0, len(cands))
	for _, p := range cands {
		var c int64
		for _, k := range uncovered {
			if s.ev.Sets[k].Test(p) {
				c += s.ev.Counts[k]
			}
		}
		order = append(order, scored{p, c})
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].cover != order[b].cover {
			return order[a].cover > order[b].cover
		}
		return order[a].pred < order[b].pred
	})
	for i, sc := range order {
		if sc.cover == 0 {
			break // no remaining candidate covers anything new
		}
		p := sc.pred
		// Candidates for the child: everything after p in this node's
		// order, minus p's operator variants.
		var child []int
		for _, nx := range order[i+1:] {
			if !s.keep(p, nx.pred) {
				continue
			}
			child = append(child, nx.pred)
		}
		var rest []int
		for _, k := range uncovered {
			if !s.ev.Sets[k].Test(p) {
				rest = append(rest, k)
			}
		}
		s.path.Set(p)
		s.elems = append(s.elems, p)
		s.search(child, rest)
		s.elems = s.elems[:len(s.elems)-1]
		s.path.Clear(p)
	}
}

func (s *searcher) keep(chosen, other int) bool {
	if s.ev.Space == nil {
		return true
	}
	for _, m := range s.ev.Space.GroupMembers(chosen) {
		if m == other {
			return false
		}
	}
	return true
}

// accept records the current path if it is a minimal approximate cover:
// no single-element deletion stays within ε (sufficient by
// monotonicity), and no previously accepted cover is a subset.
func (s *searcher) accept(uncovered []int) {
	for _, f := range s.found {
		if s.path.ContainsAll(f) && f.Count() < s.path.Count() {
			return
		}
	}
	for _, e := range s.elems {
		// Loss of path \ {e}: scan all sets not hit by the reduced path.
		s.path.Clear(e)
		reduced := s.ev.Uncovered(s.path)
		l := s.loss(reduced)
		s.path.Set(e)
		if l <= s.opts.Epsilon {
			return // not minimal
		}
	}
	cover := s.path.Clone()
	s.found = append(s.found, cover)
	s.stats.Outputs++
	s.emit(cover)
}
