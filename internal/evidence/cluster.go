package evidence

import (
	"fmt"
	"runtime"
	"slices"

	"adc/internal/bitset"
	"adc/internal/dataset"
	"adc/internal/par"
	"adc/internal/pli"
	"adc/internal/predicate"
)

// ClusterBuilder constructs the evidence set with bit-level operations
// over PLI ranks, in the style of DCFinder (the bit-level construction
// the paper adopts for its evidence component, Section 4.2), made
// cluster- and cache-aware:
//
//   - Single-tuple predicate groups depend only on the first tuple, so
//     their contribution is a per-row mask computed once. Cross-tuple
//     groups reduce to a comparison code per tuple (a PLI rank, or a
//     merged equality code), and the comparison of two codes selects a
//     precomputed mask of satisfied operators.
//   - Rows with identical predicate behavior — equal single-tuple masks
//     and equal codes in every cross-tuple group, in both tuple roles —
//     are collapsed into one weighted super-row. All w·w' pairs of a
//     super-row pair share one evidence set, computed once and counted
//     w·w' times, so equal-heavy relations drop from O(n²) evidence
//     computations to O(s²) for s distinct signatures.
//   - Super-rows are sorted by PLI rank (lowest-cardinality groups as
//     the primary keys) and the pair space is processed in cache-sized
//     tiles. Within a tile, a low-cardinality group contributes one
//     fixed operator mask per pair of rank clusters (a rank-run ×
//     rank-run block) — one comparison per cluster pair instead of one
//     per tuple pair. High-cardinality groups take a branch-free
//     segment pass instead: each column tile is pre-sorted by the
//     group's rank once (shared by every row tile), splitting each
//     row's comparisons into contiguous segments (>, =, <) that are
//     OR-ed without any per-pair comparison or branch.
//   - Deduplication runs through an open-addressing intern table keyed
//     directly on the bitset words (word-level FNV hash, arena-backed,
//     no string allocation); worker-local tables merge with a
//     word-level combine instead of re-hashing through Go maps.
//   - The rows split in two at a split row. Rows at or above it ("new")
//     never share a super-row with rows below it ("old"); new super-rows
//     sort after the old ones, and the tile grid restarts at the first
//     of them. The kernel runs only the tiles with a new super-row on
//     either side. Build splits at row 0, so every row is new and every
//     tile runs; Delta splits at the append boundary, so it builds just
//     the pairs that touch an appended row.
//
// The result is bit-for-bit identical to NaiveBuilder's up to the order
// of distinct sets (tests and the fuzz corpus enforce this); for a fixed
// worker count the order is deterministic.
type ClusterBuilder struct {
	// Workers is the number of goroutines. 0 chooses from the data: one
	// worker below autoSerialPairs super-row pairs to build, where the
	// goroutine fan-out costs more than the work, and GOMAXPROCS above.
	Workers int
	// TileSize is the tile edge in super-rows; 0 means 64, which keeps
	// a tile row's evidence L1-resident for typical predicate-space
	// widths.
	TileSize int
	// Indexes optionally shares a per-column PLI cache (the same store
	// the violation checker uses) so long-lived callers skip rebuilding
	// same-attribute indexes. Ignored unless it covers exactly the
	// relation's columns.
	Indexes *pli.Store
}

// autoSerialPairs: below this many super-row pairs a single worker
// beats the goroutine fan-out cost.
const autoSerialPairs = 1 << 16

// Build implements Builder.
func (b ClusterBuilder) Build(space *predicate.Space, withVios bool) (*Set, error) {
	n := space.Rel.NumRows()
	if n < 2 {
		return nil, fmt.Errorf("evidence: need at least 2 rows, have %d", n)
	}
	cp := prepareClusters(preparePlan(space, b.Indexes), n, b.TileSize, 0)
	return cp.finish(space, cp.run(withVios, b.workers(cp)), withVios), nil
}

// workers resolves Workers for a prepared plan: the zero value weighs
// the super-row pairs the kernel will build, those with a new super-row
// on either side.
func (b ClusterBuilder) workers(cp *clusterPlan) int {
	if b.Workers > 0 {
		return b.Workers
	}
	if int64(cp.s)*int64(cp.s)-int64(cp.old)*int64(cp.old) < autoSerialPairs {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// ---- Plan ----------------------------------------------------------------

// nanCode is the comparison code of a NaN operand. NaN is equal to,
// below and above nothing, so a pair with a NaN on either side
// satisfies only ≠ (Operator.EvalNum).
const nanCode = -1

// crossGroup is a cross-tuple operator group prepared for per-pair
// evaluation: ranks (or merged equality codes) plus the operator masks.
type crossGroup struct {
	ra, rb  []int32
	card    int32       // number of distinct codes across ra ∪ rb
	maskLt  bitset.Bits // code a<b: {<, <=, !=}
	maskEq  bitset.Bits // code a=b: {=, <=, >=}
	maskGt  bitset.Bits // code a>b: {>, >=, !=}
	maskNaN bitset.Bits // either code nanCode: {!=}
}

// plan holds the precomputed per-row masks and cross-group rank/mask
// tables.
type plan struct {
	rowMask []bitset.Bits
	cross   []crossGroup
	words   int
}

// preparePlan computes PLI ranks, operator masks, and single-tuple row
// masks for a predicate space. A non-nil store that covers the
// relation's columns supplies cached same-attribute indexes (and is
// populated for columns it has not built yet); otherwise indexes are
// built locally and discarded with the plan.
func preparePlan(space *predicate.Space, store *pli.Store) *plan {
	rel := space.Rel
	n := rel.NumRows()
	words := bitset.WordsFor(space.Size())

	if store != nil && !store.Covers(rel.Columns) {
		store = nil // e.g. a sampled relation: the cache does not apply
	}
	// PLI per column: collect the columns same-attribute groups need and
	// build their indexes in parallel up front.
	need := []int{} // non-nil: an empty need set must not build all columns
	for gi := range space.Groups {
		if g := &space.Groups[gi]; g.Cross && g.A == g.B {
			need = append(need, g.A)
		}
	}
	var indexes []*pli.Index
	if store != nil {
		store.Warm(need, 0)
	} else {
		indexes = pli.BuildIndexes(rel.Columns, need, 0)
	}
	indexFor := func(col int) *pli.Index {
		if store != nil {
			return store.Index(col)
		}
		if indexes[col] == nil { // not in need: build on demand
			indexes[col] = pli.ForColumn(rel.Columns[col])
		}
		return indexes[col]
	}

	p := &plan{words: words, rowMask: make([]bitset.Bits, n)}
	for i := range p.rowMask {
		p.rowMask[i] = make(bitset.Bits, words)
	}
	for gi := range space.Groups {
		g := &space.Groups[gi]
		if !g.Cross {
			// Single-tuple group: fold into the per-row base masks.
			for i := 0; i < n; i++ {
				for _, id := range g.Members {
					if space.Eval(id, i, 0) { // second row ignored
						p.rowMask[i].Set(id)
					}
				}
			}
			continue
		}
		cg := crossGroup{
			maskLt:  make(bitset.Bits, words),
			maskEq:  make(bitset.Bits, words),
			maskGt:  make(bitset.Bits, words),
			maskNaN: make(bitset.Bits, words),
		}
		setOp := func(op predicate.Operator, masks ...bitset.Bits) {
			if id := g.ByOp[op]; id >= 0 {
				for _, m := range masks {
					m.Set(id)
				}
			}
		}
		setOp(predicate.Eq, cg.maskEq)
		setOp(predicate.Neq, cg.maskLt, cg.maskGt, cg.maskNaN)
		if g.Numeric {
			setOp(predicate.Lt, cg.maskLt)
			setOp(predicate.Leq, cg.maskLt, cg.maskEq)
			setOp(predicate.Gt, cg.maskGt)
			setOp(predicate.Geq, cg.maskGt, cg.maskEq)
		}
		switch {
		case g.A == g.B:
			idx := indexFor(g.A)
			cg.ra, cg.rb = idx.ClusterOf, idx.ClusterOf
			cg.card = int32(idx.NumClusters)
		case g.Numeric:
			cg.ra, cg.rb = pli.MergedRanks(rel.Columns[g.A], rel.Columns[g.B])
			cg.card = maxCode(cg.ra, cg.rb) + 1
		default:
			cg.ra, cg.rb = pli.MergedCodes(rel.Columns[g.A], rel.Columns[g.B])
			cg.card = maxCode(cg.ra, cg.rb) + 1
		}
		if g.Numeric {
			// PLI ranks give every NaN its own rank below all numbers,
			// which would select maskLt or maskGt.
			cg.ra = withNaNCode(cg.ra, rel.Columns[g.A])
			if g.A == g.B {
				cg.rb = cg.ra
			} else {
				cg.rb = withNaNCode(cg.rb, rel.Columns[g.B])
			}
		}
		p.cross = append(p.cross, cg)
	}
	return p
}

// withNaNCode returns codes with the code of every NaN row of col
// replaced by nanCode. codes may alias a shared index, so the
// replacement writes to a copy; a column without NaN returns codes
// itself.
func withNaNCode(codes []int32, col *dataset.Column) []int32 {
	var out []int32
	for i, v := range col.Floats { // nil unless a float column
		if v != v {
			if out == nil {
				out = slices.Clone(codes)
			}
			out[i] = nanCode
		}
	}
	if out == nil {
		return codes
	}
	return out
}

// maxCode returns the largest code appearing in either slice (codes are
// dense, so max+1 is the cardinality of the merged domain).
func maxCode(ra, rb []int32) int32 {
	var m int32
	for _, c := range ra {
		if c > m {
			m = c
		}
	}
	for _, c := range rb {
		if c > m {
			m = c
		}
	}
	return m
}

// ---- Cluster plan --------------------------------------------------------

// sparseMask is an operator mask reduced to its nonzero words, so ORs
// touch only the words a group can set (usually one).
type sparseMask struct {
	idxs []int32
	vals []uint64
}

func sparsify(b bitset.Bits) sparseMask {
	var m sparseMask
	for i, w := range b {
		if w != 0 {
			m.idxs = append(m.idxs, int32(i))
			m.vals = append(m.vals, w)
		}
	}
	return m
}

// groupMasks are a cross group's sparse comparison masks.
type groupMasks struct {
	lt, eq, gt, nan sparseMask
}

// colTileIndex is one (scattered group, column tile) pre-sorted view:
// the tile's positions ordered by the group's code, with the codes in
// that order. Built once per column tile and shared by every row tile,
// it turns each row's mask selection into two binary searches and
// branch-free segment loops. nan counts the leading nanCode entries.
type colTileIndex struct {
	perm  []int32
	codes []int32
	nan   int
}

// clusterPlan is a plan reorganized around super-rows: rows collapsed
// by full predicate signature, sorted by PLI rank for run batching,
// with per-group structure-of-arrays code buffers. The super-rows of
// rows below the split come first ("old"); the rest are "new".
type clusterPlan struct {
	p    *plan
	n    int // original rows
	s    int // super-rows
	old  int // super-rows of rows below the split: [0, old)
	tile int
	// tiles bounds the tiles: tile t spans super-rows
	// [tiles[t], tiles[t+1]). The grid restarts at old, so tiles
	// [newTile, len(tiles)-1) hold exactly the new super-rows.
	tiles   []int
	newTile int

	members  [][]int32     // super-row -> original row indexes (weight = len)
	baseMask []bitset.Bits // super-row -> single-tuple mask (aliases plan.rowMask)
	rowCodes [][]int32     // [group][super-row] code in the first-tuple role
	colCodes [][]int32     // [group][super-row] code in the second-tuple role
	masks    []groupMasks

	// clustered groups run the rank-run × rank-run block pass;
	// scattered groups run the sorted-segment pass over colIdx.
	clustered []int32
	scattered []int32
	colIdx    [][]colTileIndex // [group][column tile]; nil for clustered groups
}

const defaultTileSize = 64

// clusterRunThreshold classifies groups: a group whose code sequence
// (after rank sorting) has at most s/4 runs averages runs of ≥4
// super-rows, enough for the block pass to amortize its bookkeeping.
func clusterRunThreshold(s int) int { return s / 4 }

// prepareClusters collapses rows into super-rows and lays the plan out
// for the tiled kernel. Rows at or above split (all rows when split is
// 0) are new: they form super-rows of their own, sorted after the old
// ones, with the tile grid restarting at the first of them.
func prepareClusters(p *plan, n, tileSize, split int) *clusterPlan {
	if tileSize <= 0 {
		tileSize = defaultTileSize
	}
	g := len(p.cross)
	sigWords := p.words + g

	// Signature: the single-tuple mask words plus, per cross group, the
	// row's code in both tuple roles (packed into one word). Two rows
	// with equal signatures satisfy exactly the same predicates against
	// every third row and against each other — they are interchangeable
	// in both pair positions. Each side of the split has its own table.
	sig := make([]uint64, sigWords)
	members := make([][]int32, 0, n/2)
	collapse := func(lo, hi int) {
		tab := newInternTable(sigWords, hi-lo)
		off := len(members)
		for i := lo; i < hi; i++ {
			copy(sig, p.rowMask[i])
			for k := range p.cross {
				cg := &p.cross[k]
				sig[p.words+k] = uint64(uint32(cg.ra[i])) | uint64(uint32(cg.rb[i]))<<32
			}
			idx, isNew := tab.intern(sig, bitset.HashWords(sig))
			if isNew {
				members = append(members, nil)
			}
			members[off+int(idx)] = append(members[off+int(idx)], int32(i))
		}
	}
	collapse(0, split)
	old := len(members)
	collapse(split, n)
	s := len(members)

	// Visit order: lexicographic by group code, lowest-cardinality
	// groups first, so the primary sort keys form the longest runs.
	byCard := make([]int, g)
	for k := range byCard {
		byCard[k] = k
	}
	slices.SortFunc(byCard, func(a, b int) int {
		if ca, cb := p.cross[a].card, p.cross[b].card; ca != cb {
			return int(ca - cb)
		}
		return a - b
	})
	rep := make([]int32, s) // representative original row per super-row
	for t := range members {
		rep[t] = members[t][0]
	}
	ord := make([]int32, s)
	for t := range ord {
		ord[t] = int32(t)
	}
	byCode := func(a, b int32) int {
		ra, rb := rep[a], rep[b]
		for _, k := range byCard {
			cg := &p.cross[k]
			if cg.ra[ra] != cg.ra[rb] {
				return int(cg.ra[ra] - cg.ra[rb])
			}
			if cg.rb[ra] != cg.rb[rb] {
				return int(cg.rb[ra] - cg.rb[rb])
			}
		}
		return int(a - b) // signatures differ only in the mask
	}
	slices.SortFunc(ord[:old], byCode)
	slices.SortFunc(ord[old:], byCode)

	cp := &clusterPlan{
		p:        p,
		n:        n,
		s:        s,
		old:      old,
		tile:     tileSize,
		members:  make([][]int32, s),
		baseMask: make([]bitset.Bits, s),
		rowCodes: make([][]int32, g),
		colCodes: make([][]int32, g),
		masks:    make([]groupMasks, g),
		colIdx:   make([][]colTileIndex, g),
	}
	for k := range p.cross {
		cp.rowCodes[k] = make([]int32, s)
		cp.colCodes[k] = make([]int32, s)
		cp.masks[k] = groupMasks{
			lt:  sparsify(p.cross[k].maskLt),
			eq:  sparsify(p.cross[k].maskEq),
			gt:  sparsify(p.cross[k].maskGt),
			nan: sparsify(p.cross[k].maskNaN),
		}
	}
	for t, src := range ord {
		cp.members[t] = members[src]
		r := rep[src]
		cp.baseMask[t] = p.rowMask[r]
		for k := range p.cross {
			cp.rowCodes[k][t] = p.cross[k].ra[r]
			cp.colCodes[k][t] = p.cross[k].rb[r]
		}
	}

	for t := 0; t < old; t += tileSize {
		cp.tiles = append(cp.tiles, t)
	}
	cp.newTile = len(cp.tiles)
	for t := old; t < s; t += tileSize {
		cp.tiles = append(cp.tiles, t)
	}
	cp.tiles = append(cp.tiles, s)

	// Classify groups by their realized run structure in the chosen
	// order (primary sort keys cluster; late or cross-column keys may
	// not), and pre-sort column tiles for the scattered ones.
	threshold := clusterRunThreshold(s)
	for k := 0; k < g; k++ {
		runs := countRuns(cp.rowCodes[k]) // row runs drive the block pass
		if runs <= threshold {
			cp.clustered = append(cp.clustered, int32(k))
			continue
		}
		cp.scattered = append(cp.scattered, int32(k))
		cc := cp.colCodes[k]
		idx := make([]colTileIndex, len(cp.tiles)-1)
		for ti := range idx {
			c0, c1 := cp.tiles[ti], cp.tiles[ti+1]
			perm := make([]int32, c1-c0)
			for j := range perm {
				perm[j] = int32(j)
			}
			slices.SortFunc(perm, func(pa, pb int32) int {
				if ca, cb := cc[c0+int(pa)], cc[c0+int(pb)]; ca != cb {
					return int(ca - cb)
				}
				return int(pa - pb)
			})
			codes := make([]int32, len(perm))
			for j, pj := range perm {
				codes[j] = cc[c0+int(pj)]
			}
			nan := 0
			for nan < len(codes) && codes[nan] == nanCode {
				nan++
			}
			idx[ti] = colTileIndex{perm: perm, codes: codes, nan: nan}
		}
		cp.colIdx[k] = idx
	}
	return cp
}

func countRuns(codes []int32) int {
	runs := 0
	for i, c := range codes {
		if i == 0 || codes[i-1] != c {
			runs++
		}
	}
	return runs
}

// ---- Kernel --------------------------------------------------------------

// clusterAcc is one worker's private accumulation state.
type clusterAcc struct {
	tab   *internTable
	pairs int64 // ordered tuple pairs interned
	// superVios, when vios are requested, counts per distinct evidence
	// set how many ordered pairs each super-row participates in; it is
	// expanded to per-tuple counts once, by finish or Delta's reconcile.
	superVios []map[int32]int64
}

func newClusterAcc(words int, withVios bool) *clusterAcc {
	a := &clusterAcc{tab: newInternTable(words, internCapHint)}
	if withVios {
		a.superVios = []map[int32]int64{}
	}
	return a
}

func (a *clusterAcc) vios(idx int32) map[int32]int64 {
	for int(idx) >= len(a.superVios) {
		a.superVios = append(a.superVios, nil)
	}
	if a.superVios[idx] == nil {
		a.superVios[idx] = make(map[int32]int64)
	}
	return a.superVios[idx]
}

// run executes the tiled kernel across workers over every tile with a
// new super-row on either side and returns the merged accumulation.
func (cp *clusterPlan) run(withVios bool, workers int) *clusterAcc {
	numTiles := len(cp.tiles) - 1
	workers = min(workers, numTiles)

	// Strided static assignment: worker w takes row tiles w, w+W, w+2W,
	// … — interleaving spreads weight skew across workers while keeping
	// each worker's visit order (and therefore the merged distinct-set
	// order) deterministic for a fixed W. An old row tile pairs only
	// with the new column tiles.
	accs := make([]*clusterAcc, workers)
	par.Do(workers, workers, func(w int) {
		acc := newClusterAcc(cp.p.words, withVios)
		buf := make([]uint64, cp.tile*cp.tile*max(cp.p.words, 1))
		for rt := w; rt < numTiles; rt += workers {
			ct := 0
			if rt < cp.newTile {
				ct = cp.newTile
			}
			for ; ct < numTiles; ct++ {
				cp.tileKernel(acc, buf, rt, ct, withVios)
			}
		}
		accs[w] = acc
	})

	base := accs[0]
	for _, other := range accs[1:] {
		base.pairs += other.pairs
		remap := base.tab.mergeFrom(other.tab)
		if withVios {
			for k, sv := range other.superVios {
				if len(sv) == 0 {
					continue
				}
				dst := base.vios(remap[k])
				for sr, c := range sv {
					dst[sr] += c
				}
			}
		}
	}
	return base
}

// tileKernel builds the evidence of every super-pair in the tile of row
// tile rt and column tile ct: base masks copied row-wise, block ORs for
// clustered groups, segment ORs for scattered groups, then interning.
func (cp *clusterPlan) tileKernel(acc *clusterAcc, buf []uint64, rt, ct int, withVios bool) {
	r0, r1 := cp.tiles[rt], cp.tiles[rt+1]
	c0, c1 := cp.tiles[ct], cp.tiles[ct+1]
	rows, cols := r1-r0, c1-c0
	words := cp.p.words

	// Initialize every pair of the tile with its row's single-tuple
	// mask. Multi-word rows fill by copy-doubling: one seed pair, then
	// log₂(cols) growing memmoves instead of one small copy per pair.
	if words == 1 {
		for ti := 0; ti < rows; ti++ {
			w := cp.baseMask[r0+ti][0]
			row := buf[ti*cols : (ti+1)*cols]
			for tj := range row {
				row[tj] = w
			}
		}
	} else if words > 0 {
		for ti := 0; ti < rows; ti++ {
			bm := cp.baseMask[r0+ti]
			row := buf[ti*cols*words : (ti+1)*cols*words]
			copy(row, bm)
			for filled := words; filled < len(row); filled *= 2 {
				copy(row[filled:], row[:filled])
			}
		}
	}

	// Clustered groups, block pass: every rank-run × rank-run block is
	// one cluster pair, selecting one mask for the whole block.
	for _, k := range cp.clustered {
		rc, cc := cp.rowCodes[k], cp.colCodes[k]
		gm := &cp.masks[k]
		for ti := 0; ti < rows; {
			a := rc[r0+ti]
			te := ti + 1
			for te < rows && rc[r0+te] == a {
				te++
			}
			for tj := 0; tj < cols; {
				b := cc[c0+tj]
				se := tj + 1
				for se < cols && cc[c0+se] == b {
					se++
				}
				var m *sparseMask
				switch {
				case a == nanCode || b == nanCode:
					m = &gm.nan
				case a == b:
					m = &gm.eq
				case a < b:
					m = &gm.lt
				default:
					m = &gm.gt
				}
				orBlock(buf, ti, te, tj, se, cols, words, m)
				tj = se
			}
			ti = te
		}
	}

	// Scattered groups, segment pass, row-major so each tile row's
	// evidence stays L1-resident across groups. For each row the
	// sorted column view splits into the NaN prefix [0,nan) (maskNaN),
	// [nan,lo) where the column's code is below the row's (maskGt),
	// [lo,hi) equal (maskEq), and [hi,cols) above (maskLt) — no per-pair
	// comparison or branch. A NaN row takes maskNaN across the tile.
	for ti := 0; ti < rows; ti++ {
		rowBase := ti * cols * words
		for _, k := range cp.scattered {
			a := cp.rowCodes[k][r0+ti]
			idx := &cp.colIdx[k][ct]
			gm := &cp.masks[k]
			if a == nanCode {
				orSegment(buf, rowBase, idx.perm, words, &gm.nan)
				continue
			}
			if idx.nan > 0 {
				orSegment(buf, rowBase, idx.perm[:idx.nan], words, &gm.nan)
			}
			codes := idx.codes
			// Inlined branchless-ish binary search for the first code
			// ≥ a (sort.Search's closure call costs as much as the
			// compare at this trip count).
			lo, up := idx.nan, len(codes)
			for lo < up {
				mid := int(uint(lo+up) >> 1)
				if codes[mid] < a {
					lo = mid + 1
				} else {
					up = mid
				}
			}
			hi := lo
			for hi < len(codes) && codes[hi] == a {
				hi++
			}
			orSegment(buf, rowBase, idx.perm[idx.nan:lo], words, &gm.gt)
			orSegment(buf, rowBase, idx.perm[lo:hi], words, &gm.eq)
			orSegment(buf, rowBase, idx.perm[hi:], words, &gm.lt)
		}
	}

	// Intern each super-pair with its pair multiplicity.
	for ti := 0; ti < rows; ti++ {
		a := r0 + ti
		wa := int64(len(cp.members[a]))
		rowBuf := buf[ti*cols*words:]
		for tj := 0; tj < cols; tj++ {
			b := c0 + tj
			var cnt int64
			if a == b {
				cnt = wa * (wa - 1) // ordered pairs within one super-row
				if cnt == 0 {
					continue
				}
			} else {
				cnt = wa * int64(len(cp.members[b]))
			}
			acc.pairs += cnt
			idx := acc.tab.add(rowBuf[tj*words:(tj+1)*words], cnt)
			if withVios {
				sv := acc.vios(idx)
				if a == b {
					sv[int32(a)] += 2 * (wa - 1)
				} else {
					sv[int32(a)] += int64(len(cp.members[b]))
					sv[int32(b)] += wa
				}
			}
		}
	}
}

// orBlock ORs a sparse mask into every pair of the block
// [ti,te) × [tj,se) of the tile buffer.
func orBlock(buf []uint64, ti, te, tj, se, cols, words int, m *sparseMask) {
	if len(m.idxs) == 0 {
		return
	}
	if words == 1 {
		v := m.vals[0]
		for t := ti; t < te; t++ {
			row := buf[t*cols : t*cols+cols]
			for s := tj; s < se; s++ {
				row[s] |= v
			}
		}
		return
	}
	for t := ti; t < te; t++ {
		base := t * cols * words
		if len(m.idxs) == 1 {
			wi, v := int(m.idxs[0]), m.vals[0]
			for s := tj; s < se; s++ {
				buf[base+s*words+wi] |= v
			}
			continue
		}
		for s := tj; s < se; s++ {
			off := base + s*words
			for q, wi := range m.idxs {
				buf[off+int(wi)] |= m.vals[q]
			}
		}
	}
}

// orSegment ORs a sparse mask into the pairs (rowBase, perm[...]) of
// one tile row — the branch-free inner loop of the scattered pass.
func orSegment(buf []uint64, rowBase int, perm []int32, words int, m *sparseMask) {
	if len(m.idxs) == 0 || len(perm) == 0 {
		return
	}
	if words == 1 {
		v := m.vals[0]
		row := buf[rowBase:]
		for _, pj := range perm {
			row[pj] |= v
		}
		return
	}
	if len(m.idxs) == 1 {
		wi, v := int(m.idxs[0]), m.vals[0]
		for _, pj := range perm {
			buf[rowBase+int(pj)*words+wi] |= v
		}
		return
	}
	for _, pj := range perm {
		off := rowBase + int(pj)*words
		for q, wi := range m.idxs {
			buf[off+int(wi)] |= m.vals[q]
		}
	}
}

// finish assembles the Set: arena-backed bitset views, counts, and the
// super-row vios expanded to per-tuple counts.
func (cp *clusterPlan) finish(space *predicate.Space, acc *clusterAcc, withVios bool) *Set {
	out := &Set{
		Space:      space,
		Sets:       acc.tab.sets(),
		Counts:     acc.tab.counts,
		TotalPairs: int64(cp.n) * int64(cp.n-1),
		NumRows:    cp.n,
	}
	if withVios {
		out.Vios = make([]map[int32]int64, acc.tab.len())
		for idx := range out.Vios {
			m := make(map[int32]int64)
			if idx < len(acc.superVios) {
				for sr, c := range acc.superVios[idx] {
					for _, row := range cp.members[sr] {
						m[row] += c
					}
				}
			}
			out.Vios[idx] = m
		}
	}
	return out
}
