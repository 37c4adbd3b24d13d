package evidence_test

import (
	"math"
	"math/rand"
	"testing"

	"adc/internal/dataset"
	"adc/internal/evidence"
	"adc/internal/predicate"
)

// fuzzRelation derives a random relation from the fuzz inputs: column
// count, dtype mix, row count, and value ranges all vary, with value
// ranges kept small enough that equality collisions (the interesting
// case for cluster collapse and evidence dedup) actually occur. Float
// columns also hold NaN, which compares unequal to everything including
// itself, and −0, which equals 0.
func fuzzRelation(r *rand.Rand, shape byte) *dataset.Relation {
	n := 2 + r.Intn(20)
	numCols := 1 + int(shape>>5)  // 1..8 columns
	wideDomain := shape&0x10 != 0 // occasionally near-unique values
	letters := []string{"a", "b", "c", "d"}
	cols := make([]*dataset.Column, 0, numCols)
	for c := 0; c < numCols; c++ {
		domain := 2 + r.Intn(4)
		if wideDomain && c == 0 {
			domain = 3 * n // mostly distinct
		}
		name := string(rune('A' + c))
		switch r.Intn(3) {
		case 0:
			vals := make([]string, n)
			for i := range vals {
				vals[i] = letters[r.Intn(len(letters))] + string(rune('0'+r.Intn(domain)))
			}
			cols = append(cols, dataset.NewStringColumn(name, vals))
		case 1:
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(r.Intn(domain))
			}
			cols = append(cols, dataset.NewIntColumn(name, vals))
		default:
			vals := make([]float64, n)
			for i := range vals {
				v := float64(r.Intn(domain)) / 2
				switch r.Intn(8) {
				case 0:
					v = math.NaN()
				case 1:
					v = -v // −0 when v is 0
				}
				vals[i] = v
			}
			cols = append(cols, dataset.NewFloatColumn(name, vals))
		}
	}
	return dataset.MustNewRelation("fuzz", cols)
}

// fuzzPredicateOptions varies the predicate-space shape: the operator
// mix follows from the dtypes, and the space structure from the
// single-tuple / cross-column toggles and the comparability threshold.
func fuzzPredicateOptions(shape byte) predicate.Options {
	opts := predicate.DefaultOptions()
	opts.SingleTuple = shape&1 != 0
	opts.CrossColumn = shape&2 != 0
	if shape&4 != 0 {
		opts.MinShared = 0.05 // admit more cross-column pairs
	}
	return opts
}

// FuzzBuildersAgree is the cross-builder equivalence property: on any
// relation and predicate space, ClusterBuilder at any worker count and
// tile size (and the zero value's own choice) produces the evidence
// multiset of NaiveBuilder, the oracle, including per-tuple vios. The
// seed corpus (testdata/fuzz/FuzzBuildersAgree) runs on every plain
// `go test`; `go test -fuzz=FuzzBuildersAgree` explores further.
func FuzzBuildersAgree(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, byte(seed*37))
	}
	f.Add(int64(99), byte(0x10)) // wide-domain, no single-tuple/cross-column
	f.Add(int64(7), byte(0xff))  // max columns, all toggles
	f.Fuzz(func(t *testing.T, seed int64, shape byte) {
		r := rand.New(rand.NewSource(seed))
		rel := fuzzRelation(r, shape)
		space := predicate.Build(rel, fuzzPredicateOptions(shape))
		withVios := shape&8 != 0

		naive, err := evidence.NaiveBuilder{}.Build(space, withVios)
		if err != nil {
			t.Fatalf("naive: %v", err)
		}
		builders := []evidence.Builder{
			evidence.ClusterBuilder{Workers: 1 + r.Intn(4), TileSize: 1 + r.Intn(9)},
			evidence.ClusterBuilder{},
		}
		for _, b := range builders {
			got, err := b.Build(space, withVios)
			if err != nil {
				t.Fatalf("%T: %v", b, err)
			}
			requireSameEvidence(t, naive, got, withVios)
		}
	})
}
