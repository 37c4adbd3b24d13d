package evidence_test

import (
	"errors"
	"math/rand"
	"testing"

	"adc/internal/evidence"
	"adc/internal/predicate"
)

// FuzzEvidenceDelta is the incremental-maintenance equivalence
// property: for any relation, any predicate-space shape, any split of
// the rows into a base prefix and an appended suffix, and any worker
// count and tile size, extending the base's evidence with Delta equals
// building the full relation's evidence from scratch with the
// NaiveBuilder oracle — sets, counts, and vios. ErrSpaceChanged is the
// one legal escape, and only when the split genuinely changes the space
// structure. The seed corpus (testdata/fuzz/FuzzEvidenceDelta) runs on
// every plain `go test`; `go test -fuzz=FuzzEvidenceDelta` explores
// further.
func FuzzEvidenceDelta(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed, byte(seed*31), byte(seed*13))
	}
	f.Add(int64(99), byte(0x10), byte(1))   // wide domain, minimal base
	f.Add(int64(7), byte(0xff), byte(200))  // max columns, big append
	f.Add(int64(42), byte(0x0b), byte(255)) // vios on, cross-column on
	f.Fuzz(func(t *testing.T, seed int64, shape, split byte) {
		r := rand.New(rand.NewSource(seed))
		rel := fuzzRelation(r, shape)
		b := evidence.ClusterBuilder{Workers: 1 + r.Intn(4), TileSize: 1 + r.Intn(9)}
		n := rel.NumRows()
		if n < 3 {
			return
		}
		m := 2 + int(split)%(n-2) // base prefix size in [2, n-1]
		rows := make([]int, m)
		for i := range rows {
			rows[i] = i
		}
		base := rel.Project(rows)
		popts := fuzzPredicateOptions(shape)
		baseSpace := predicate.Build(base, popts)
		fullSpace := predicate.Build(rel, popts)
		withVios := shape&8 != 0

		prev, err := evidence.ClusterBuilder{}.Build(baseSpace, withVios)
		if err != nil {
			t.Fatalf("base build: %v", err)
		}
		got, st, err := b.Delta(prev, fullSpace)
		if errors.Is(err, evidence.ErrSpaceChanged) {
			if baseSpace.SameStructure(fullSpace) {
				t.Fatal("ErrSpaceChanged although the structure is unchanged")
			}
			return
		}
		if err != nil {
			t.Fatalf("delta: %v", err)
		}
		k := int64(n - m)
		if want := 2*k*int64(m) + k*k - k; st.Pairs != want {
			t.Fatalf("delta pairs = %d, want %d (append %d onto %d, %+v)", st.Pairs, want, k, m, b)
		}
		scratch, err := evidence.NaiveBuilder{}.Build(fullSpace, withVios)
		if err != nil {
			t.Fatalf("scratch build: %v", err)
		}
		requireSameEvidence(t, scratch, got, withVios)
	})
}
