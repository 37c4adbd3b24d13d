// Package evidence builds and represents the evidence set Evi(D) of the
// paper (Section 3): the bag {Sat(t, t') | t, t' ∈ D, t ≠ t'}, where
// Sat(t, t') is the set of predicates satisfied by the ordered tuple
// pair. Following the paper, each distinct predicate set is stored once
// together with its number of occurrences, and optionally with the
// per-tuple participation counts ("vios", Figure 2) that the f2 and
// greedy-f3 approximation functions consume.
//
// Two builders are provided, producing the same evidence. ClusterBuilder
// (the adc.Mine default) is the bit-level construction the paper adopts
// for its evidence component (Section 4.2, component 3), in the style
// of DCFinder (Pena et al.): each operator group reduces to a comparison
// code per tuple, computed from PLI ranks, and comparing two codes
// selects a precomputed bit mask; signature-identical rows collapse into
// weighted super-rows, processed in rank-sorted, cache-sized tiles.
// NaiveBuilder evaluates every predicate on every ordered pair, as in
// FASTDC (Chu et al.); it is the correctness oracle and the
// evidence-cost baseline. ClusterBuilder.Delta maintains an evidence set
// across appends with the same kernel, run over the pairs that touch an
// appended row.
package evidence

import (
	"encoding/binary"
	"fmt"

	"adc/internal/bitset"
	"adc/internal/predicate"
)

// Set is the evidence set of a database: distinct Sat-sets with
// multiplicities over ordered pairs of distinct tuples.
type Set struct {
	Space      *predicate.Space
	Sets       []bitset.Bits // distinct evidence sets
	Counts     []int64       // multiplicity of each distinct set
	TotalPairs int64         // |D| * (|D|-1)
	NumRows    int

	// Vios, when built, stores for each distinct evidence set S the map
	// tuple -> number of ordered pairs with evidence S that the tuple
	// participates in (each pair contributes to both endpoints). This is
	// the vios structure of Figure 2.
	Vios []map[int32]int64
}

// FromSets builds an evidence set directly from bitsets and
// multiplicities, without a predicate space or relation. This supports
// using the enumeration algorithms of package hitset as generic
// (approximate) minimal-hitting-set enumerators, outside constraint
// discovery (Section 6 of the paper notes this generality). totalPairs
// is the loss denominator for pair-based functions; numRows the one for
// tuple-based functions (pass the sum of counts and 0 when these have
// no natural meaning).
func FromSets(sets []bitset.Bits, counts []int64, numRows int, totalPairs int64) *Set {
	return &Set{
		Sets:       sets,
		Counts:     counts,
		NumRows:    numRows,
		TotalPairs: totalPairs,
	}
}

// Distinct returns the number of distinct evidence sets (n in the
// paper's complexity analysis).
func (s *Set) Distinct() int { return len(s.Sets) }

// HasVios reports whether tuple participation counts were built.
func (s *Set) HasVios() bool { return s.Vios != nil }

// ViolationCount returns the number of ordered pairs whose evidence set
// has an empty intersection with the hitting set hs — the pairs
// violating the DC whose complement-predicate set is hs.
func (s *Set) ViolationCount(hs bitset.Bits) int64 {
	var v int64
	for k, ev := range s.Sets {
		if !ev.Intersects(hs) {
			v += s.Counts[k]
		}
	}
	return v
}

// Uncovered returns the indexes of distinct evidence sets with empty
// intersection with hs.
func (s *Set) Uncovered(hs bitset.Bits) []int {
	var out []int
	for k, ev := range s.Sets {
		if !ev.Intersects(hs) {
			out = append(out, k)
		}
	}
	return out
}

// CountOf returns the multiplicity of distinct set k.
func (s *Set) CountOf(k int) int64 { return s.Counts[k] }

// Builder constructs the evidence set of the relation underlying a
// predicate space.
type Builder interface {
	// Build constructs Evi(D). When withVios is set, per-tuple
	// participation counts are recorded (needed by f2 and greedy f3).
	Build(space *predicate.Space, withVios bool) (*Set, error)
}

// accumulator deduplicates evidence bitsets during construction.
type accumulator struct {
	space    *predicate.Space
	words    int
	buf      []byte
	index    map[string]int32
	out      *Set
	withVios bool
}

func newAccumulator(space *predicate.Space, withVios bool) *accumulator {
	words := bitset.WordsFor(space.Size())
	n := space.Rel.NumRows()
	a := &accumulator{
		space:    space,
		words:    words,
		buf:      make([]byte, 8*words),
		index:    make(map[string]int32),
		withVios: withVios,
		out: &Set{
			Space:      space,
			TotalPairs: int64(n) * int64(n-1),
			NumRows:    n,
		},
	}
	if withVios {
		a.out.Vios = []map[int32]int64{}
	}
	return a
}

// add records the evidence bitset ev for ordered pair (i, j).
func (a *accumulator) add(ev bitset.Bits, i, j int) {
	for w, word := range ev {
		binary.LittleEndian.PutUint64(a.buf[8*w:], word)
	}
	idx, ok := a.index[string(a.buf)]
	if !ok {
		idx = int32(len(a.out.Sets))
		a.index[string(a.buf)] = idx
		a.out.Sets = append(a.out.Sets, ev.Clone())
		a.out.Counts = append(a.out.Counts, 0)
		if a.withVios {
			a.out.Vios = append(a.out.Vios, map[int32]int64{})
		}
	}
	a.out.Counts[idx]++
	if a.withVios {
		a.out.Vios[idx][int32(i)]++
		a.out.Vios[idx][int32(j)]++
	}
}

func (a *accumulator) finish() *Set { return a.out }

// NaiveBuilder evaluates each predicate on each ordered pair, as in
// FASTDC. Quadratic in |D| and linear in |P| per pair.
type NaiveBuilder struct{}

// Build implements Builder.
func (NaiveBuilder) Build(space *predicate.Space, withVios bool) (*Set, error) {
	n := space.Rel.NumRows()
	if n < 2 {
		return nil, fmt.Errorf("evidence: need at least 2 rows, have %d", n)
	}
	acc := newAccumulator(space, withVios)
	ev := bitset.New(space.Size())
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			ev.Reset()
			for id := 0; id < space.Size(); id++ {
				if space.Eval(id, i, j) {
					ev.Set(id)
				}
			}
			acc.add(ev, i, j)
		}
	}
	return acc.finish(), nil
}

// MemBytes estimates the heap footprint of the evidence set, for cache
// accounting: bitset words, multiplicities, and the vios maps at a
// nominal 16 bytes per entry.
func (s *Set) MemBytes() int64 {
	var b int64
	for _, ev := range s.Sets {
		b += int64(len(ev))*8 + 24
	}
	b += int64(len(s.Counts)) * 8
	for _, m := range s.Vios {
		b += int64(len(m))*16 + 48
	}
	return b
}
