package violation

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"adc/internal/dataset"
	"adc/internal/predicate"
)

// fuzzCheckRelation derives a random relation from the fuzz inputs.
// Domains are kept small so equality collisions (joins, clusters) are
// common, and float columns mix in NaN and both zero signs — the value
// classes whose total-order ranking the PLI paths must get right. Some
// Int columns mix in 2^53 − 1, 2^53 and 2^53 + 1, where float64 keys
// stop telling integers apart.
func fuzzCheckRelation(r *rand.Rand, shape byte) *dataset.Relation {
	n := 2 + r.Intn(18)
	numCols := 2 + int(shape>>6) // 2..5 columns
	cols := make([]*dataset.Column, 0, numCols)
	for c := 0; c < numCols; c++ {
		domain := 2 + r.Intn(5)
		name := string(rune('A' + c))
		switch r.Intn(3) {
		case 0:
			vals := make([]string, n)
			for i := range vals {
				vals[i] = string(rune('a' + r.Intn(domain)))
			}
			cols = append(cols, dataset.NewStringColumn(name, vals))
		case 1:
			vals := make([]int64, n)
			wide := r.Intn(4) == 0
			for i := range vals {
				if wide && r.Intn(2) == 0 {
					vals[i] = maxExactInt + int64(r.Intn(3)) - 1
				} else {
					vals[i] = int64(r.Intn(domain)) - 2
				}
			}
			cols = append(cols, dataset.NewIntColumn(name, vals))
		default:
			vals := make([]float64, n)
			for i := range vals {
				switch r.Intn(8) {
				case 0:
					vals[i] = math.NaN()
				case 1:
					vals[i] = math.Copysign(0, -1)
				default:
					vals[i] = float64(r.Intn(domain)) - 1
				}
			}
			cols = append(cols, dataset.NewFloatColumn(name, vals))
		}
	}
	return dataset.MustNewRelation("fuzz", cols)
}

// fuzzDCSpec builds a random well-typed DC over the relation: order
// operators only between numeric columns, strings restricted to
// (in)equality, and operand kinds always matching. A quarter of the
// predicates are single-tuple, and half compare an attribute with
// itself, the form the joins and the count phase key on.
func fuzzDCSpec(r *rand.Rand, rel *dataset.Relation) predicate.DCSpec {
	numeric := make([]string, 0, rel.NumColumns())
	str := make([]string, 0, rel.NumColumns())
	for _, c := range rel.Columns {
		if c.Type == dataset.String {
			str = append(str, c.Name)
		} else {
			numeric = append(numeric, c.Name)
		}
	}
	orderOps := []predicate.Operator{predicate.Lt, predicate.Leq, predicate.Gt, predicate.Geq}
	spec := make(predicate.DCSpec, 0, 3)
	for len(spec) == 0 || (len(spec) < 3 && r.Intn(2) == 0) {
		var p predicate.Spec
		p.Cross = r.Intn(4) > 0
		same := r.Intn(2) == 0
		if len(numeric) > 0 && (len(str) == 0 || r.Intn(3) > 0) {
			p.A = numeric[r.Intn(len(numeric))]
			p.B = numeric[r.Intn(len(numeric))]
			switch r.Intn(3) {
			case 0:
				p.Op = predicate.Eq
			case 1:
				p.Op = predicate.Neq
			default:
				p.Op = orderOps[r.Intn(len(orderOps))]
			}
		} else {
			p.A = str[r.Intn(len(str))]
			p.B = str[r.Intn(len(str))]
			if r.Intn(2) == 0 {
				p.Op = predicate.Eq
			} else {
				p.Op = predicate.Neq
			}
		}
		if same {
			p.B = p.A
		}
		spec = append(spec, p)
	}
	return spec
}

// FuzzCheckPaths is the cross-executor equivalence property behind the
// planner: on any relation and well-typed DC, at a MaxPairs drawn from
// {0, 1, 3, 10}, the forced grouped plan (on 1–4 workers, which split
// even these 2–19 rows into chunks) and the planner (which counts a
// countable DC when MaxPairs > 0) report the scan's violations, pairs,
// truncation, tuple counts, and losses. At MaxPairs 0 every grouped
// run examines exactly the candidates the planner's count gives, so a
// dropped or doubled chunk fails. The scan matches the reference
// evaluator predicate.DC.ViolatingPairs whenever the mined predicate
// space admits the DC and no Int column is wide (the reference compares
// numbers as float64). The seed corpus under testdata/fuzz runs on
// every plain `go test`; `go test -fuzz=FuzzCheckPaths` explores
// further.
func FuzzCheckPaths(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, byte(seed*29))
	}
	f.Add(int64(3), byte(0xc0)) // max columns
	f.Add(int64(11), byte(0x40))
	f.Fuzz(func(t *testing.T, seed int64, shape byte) {
		r := rand.New(rand.NewSource(seed))
		rel := fuzzCheckRelation(r, shape)
		specs := []predicate.DCSpec{fuzzDCSpec(r, rel)}
		maxPairs := []int{0, 1, 3, 10}[r.Intn(4)]

		base, err := Check(rel, specs, Options{Path: PathScan, MaxPairs: maxPairs})
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		want := base.Results[0]
		c := NewChecker(rel)
		plan, err := c.plan(specs[0])
		if err != nil {
			t.Fatal(err)
		}
		cand := plan.groupPlan(c.cache).candidates(plan.mask)
		for _, path := range []string{execGrouped, PathAuto} {
			got := checkExec(t, rel, specs[0], path, Options{Workers: 1 + r.Intn(4), MaxPairs: maxPairs})
			if maxPairs == 0 && (path == execGrouped || got.Plan.Shape != ShapeScan) && got.Plan.ActualPairs != cand {
				t.Errorf("%s: examined %d pairs, the plan has %d candidates (plan %+v)", path, got.Plan.ActualPairs, cand, got.Plan)
			}
			if got.Violations != want.Violations {
				t.Errorf("%s: %d violations, scan found %d", path, got.Violations, want.Violations)
			}
			if !reflect.DeepEqual(got.Pairs, want.Pairs) || got.Truncated != want.Truncated {
				t.Errorf("%s: pairs %v (truncated %v), scan %v (truncated %v) (plan %+v)",
					path, got.Pairs, got.Truncated, want.Pairs, want.Truncated, got.Plan)
			}
			if !reflect.DeepEqual(got.TupleCounts, want.TupleCounts) {
				t.Errorf("%s: tuple counts %v, scan %v", path, got.TupleCounts, want.TupleCounts)
			}
			if got.LossF1 != want.LossF1 || got.LossF2 != want.LossF2 || got.LossF3 != want.LossF3 {
				t.Errorf("%s: losses (%v %v %v), scan (%v %v %v)", path,
					got.LossF1, got.LossF2, got.LossF3, want.LossF1, want.LossF2, want.LossF3)
			}
		}

		// Reference evaluator, when the mined space admits the DC.
		if hasWideInt(rel) {
			return
		}
		popts := predicate.DefaultOptions()
		popts.MinShared = 0
		space := predicate.Build(rel, popts)
		dc, err := predicate.FromSpecs(space, specs[0])
		if err != nil {
			return // predicate not in the mined space; executor agreement above still holds
		}
		ref := dc.ViolatingPairs()
		if int64(len(ref)) != want.Violations || !pairsEqual(ref[:len(want.Pairs)], want.Pairs) {
			t.Errorf("reference pairs %v, scan %v of %d", ref, want.Pairs, want.Violations)
		}
	})
}

func hasWideInt(rel *dataset.Relation) bool {
	cache := NewChecker(rel).cache
	for k := range rel.Columns {
		if cache.wideInt(k) {
			return true
		}
	}
	return false
}
