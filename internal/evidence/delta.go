package evidence

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"adc/internal/bitset"
	"adc/internal/dataset"
	"adc/internal/predicate"
)

// ErrSpaceChanged reports that the predicate space of the grown relation
// does not structurally match the cached evidence's space. The 30%
// shared-values rule makes predicate.Build data-dependent, so an append
// can add or remove cross-column predicates; when it does, the cached
// bitsets no longer mean the same thing and the caller must rebuild from
// scratch.
var ErrSpaceChanged = errors.New("evidence: predicate space structure changed across append")

// DeltaStats describes one incremental maintenance step.
type DeltaStats struct {
	OldRows      int   // rows covered by the cached set
	NewRows      int   // rows after the append
	AppendedRows int   // NewRows - OldRows
	Parts        int   // super-rows of appended rows
	Pairs        int64 // ordered pairs the delta built
}

// Delta derives the evidence set of the grown relation underlying space
// from base, the evidence of that relation's first base.NumRows rows.
// An append of k rows onto m touches only the 2·k·m cross pairs and the
// k·(k−1) new-new pairs, so Delta runs Build's tiled kernel split at the
// append boundary: appended rows form super-rows of their own, tiled
// apart, and only the tiles with an appended super-row on either side
// are built. Workers, TileSize and Indexes apply as in Build.
//
// space must be the predicate space of the grown relation and
// structurally equal to base.Space (ErrSpaceChanged otherwise), and
// base.Space.Rel must hold exactly the grown relation's first rows. base
// is not modified: the result is a fresh Set sharing no mutable state,
// bit-identical (sets, counts, vios) to a from-scratch build, with vios
// maintained exactly when base has them. Appending zero rows returns
// base itself.
func (b ClusterBuilder) Delta(base *Set, space *predicate.Space) (*Set, *DeltaStats, error) {
	if base == nil || base.Space == nil {
		return nil, nil, errors.New("evidence: delta base has no predicate space")
	}
	old := base.NumRows
	n := space.Rel.NumRows()
	if old < 2 {
		return nil, nil, fmt.Errorf("evidence: delta base covers %d rows, need at least 2", old)
	}
	if n < old {
		return nil, nil, fmt.Errorf("evidence: relation has %d rows, fewer than the delta base's %d", n, old)
	}
	if base.TotalPairs != int64(old)*int64(old-1) || !isPrefix(base.Space.Rel, space.Rel, old) {
		return nil, nil, errors.New("evidence: delta base is sampled or partial")
	}
	if !base.Space.SameStructure(space) {
		return nil, nil, ErrSpaceChanged
	}
	st := &DeltaStats{OldRows: old, NewRows: n, AppendedRows: n - old}
	if n == old {
		return base, st, nil
	}

	cp := prepareClusters(preparePlan(space, b.Indexes), n, b.TileSize, old)
	withVios := base.HasVios()
	acc := cp.run(withVios, b.workers(cp))
	st.Parts = cp.s - cp.old
	st.Pairs = acc.pairs

	// Reconcile: one sequential scan over the cached sets maps each delta
	// evidence to its existing index (small-table probes, no random walks
	// over a table sized to the full distinct-set count); unmatched delta
	// evidences become new sets, appended in the kernel's order. The
	// result is copy-on-write throughout — base's counts and vios are
	// cloned, its set views shared (both sides treat them as immutable) —
	// so in-flight readers of base stay consistent.
	dt := acc.tab
	remap := make([]int32, dt.len())
	for k := range remap {
		remap[k] = -1
	}
	for k, set := range base.Sets {
		if idx := dt.find(set, bitset.HashWords(set)); idx >= 0 && remap[idx] < 0 {
			remap[idx] = int32(k)
		}
	}
	sets := make([]bitset.Bits, len(base.Sets), len(base.Sets)+dt.len())
	copy(sets, base.Sets)
	counts := make([]int64, len(base.Counts), len(base.Counts)+dt.len())
	copy(counts, base.Counts)
	var vios []map[int32]int64
	if withVios {
		vios = make([]map[int32]int64, len(base.Vios), len(base.Vios)+dt.len())
		for k, m := range base.Vios {
			vios[k] = maps.Clone(m)
		}
	}
	for k := 0; k < dt.len(); k++ {
		target := remap[k]
		if target < 0 {
			target = int32(len(sets))
			// dt is sealed: its arena views are permanent, safe to share.
			sets = append(sets, bitset.Bits(dt.key(int32(k))))
			counts = append(counts, 0)
			if withVios {
				vios = append(vios, make(map[int32]int64))
			}
		}
		counts[target] += dt.counts[k]
		if withVios && k < len(acc.superVios) {
			// Super-row participation expands to each member tuple.
			sv := vios[target]
			for sr, c := range acc.superVios[k] {
				for _, t := range cp.members[sr] {
					sv[t] += c
				}
			}
		}
	}

	return &Set{
		Space:      space,
		Sets:       sets,
		Counts:     counts,
		TotalPairs: int64(n) * int64(n-1),
		NumRows:    n,
		Vios:       vios, // nil without vios
	}, st, nil
}

// isPrefix reports whether rel holds exactly the first old rows of
// grown, compared column by column (floats by bits, so NaN matches
// itself).
func isPrefix(rel, grown *dataset.Relation, old int) bool {
	if rel.NumRows() != old || len(rel.Columns) != len(grown.Columns) {
		return false
	}
	for j, c := range rel.Columns {
		g := grown.Columns[j]
		if c.Type != g.Type {
			return false
		}
		switch c.Type {
		case dataset.Int:
			if !slices.Equal(c.Ints, g.Ints[:old]) {
				return false
			}
		case dataset.Float:
			for i, v := range c.Floats {
				if math.Float64bits(v) != math.Float64bits(g.Floats[i]) {
					return false
				}
			}
		default:
			if !slices.Equal(c.Strings, g.Strings[:old]) {
				return false
			}
		}
	}
	return true
}
