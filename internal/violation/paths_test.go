package violation

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"adc/internal/datagen"
	"adc/internal/dataset"
	"adc/internal/predicate"
)

// execGrouped names the grouped executor in checkExec.
const execGrouped = "grouped"

// checkExec checks one DC on the named executor. Options.Path selects
// only the planner or the scan, so tests force the grouped executor
// (execGrouped) by running the DC's grouped plan directly, whatever the
// planner would choose and whatever the cap; DCResult.Path then reports
// the grouping (scan for all rows without a driver). Any other name is
// passed as Options.Path.
func checkExec(t testing.TB, rel *dataset.Relation, spec predicate.DCSpec, exec string, opts Options) *DCResult {
	t.Helper()
	c := NewChecker(rel)
	if exec != execGrouped {
		opts.Path = exec
		rep, err := c.Check([]predicate.DCSpec{spec}, opts)
		if err != nil {
			t.Fatalf("%s: %v", exec, err)
		}
		return &rep.Results[0]
	}
	plan, err := c.plan(spec)
	if err != nil {
		t.Fatalf("%s: %v", exec, err)
	}
	return c.execute(spec, plan, groupQueryPlan(plan.groupPlan(c.cache)), opts)
}

// TestPathsAgreeOnGeneratedData dirties generated Table 4 datasets and
// asserts that, for every golden DC, the grouped executor and the
// parallel refutation scan return identical violation sets —
// and that both match the O(n²·|P|) reference evaluator where the
// mined predicate space contains the constraint.
func TestPathsAgreeOnGeneratedData(t *testing.T) {
	for _, name := range []string{"tax", "stock", "food"} {
		d, err := datagen.ByName(name, 60, 11)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		dirty := datagen.AddNoise(d.Rel, datagen.Spread, 0.02, rng)
		space := predicate.Build(dirty, predicate.DefaultOptions())

		scanRep, err := Check(dirty, d.Golden, Options{Path: PathScan, Workers: 3})
		if err != nil {
			t.Fatalf("%s/scan: %v", name, err)
		}
		autoRep, err := Check(dirty, d.Golden, Options{})
		if err != nil {
			t.Fatalf("%s/auto: %v", name, err)
		}

		injected := int64(0)
		for k := range d.Golden {
			p := checkExec(t, dirty, d.Golden[k], execGrouped, Options{})
			s, a := scanRep.Results[k], autoRep.Results[k]
			if !reflect.DeepEqual(p.Pairs, s.Pairs) {
				t.Errorf("%s: %s: grouped %d pairs != scan %d pairs",
					name, d.Golden[k], len(p.Pairs), len(s.Pairs))
			}
			if !reflect.DeepEqual(a.Pairs, s.Pairs) {
				t.Errorf("%s: %s: auto disagrees with scan", name, d.Golden[k])
			}
			if !reflect.DeepEqual(p.TupleCounts, s.TupleCounts) {
				t.Errorf("%s: %s: tuple counts differ between paths", name, d.Golden[k])
			}
			if p.LossF1 != s.LossF1 || p.LossF2 != s.LossF2 || p.LossF3 != s.LossF3 {
				t.Errorf("%s: %s: losses differ between paths", name, d.Golden[k])
			}
			injected += s.Violations

			// The dirtied column pair may fall below the 30% rule, in which
			// case the mined space has no reference predicate to compare to.
			dc, err := predicate.FromSpecs(space, d.Golden[k])
			if err != nil {
				continue
			}
			if got, want := s.Pairs, dc.ViolatingPairs(); !pairsEqual(got, want) {
				t.Errorf("%s: %s: checker %d pairs, reference %d",
					name, d.Golden[k], len(got), len(want))
			}
		}
		if injected == 0 {
			t.Errorf("%s: noise injected no violations; test is vacuous", name)
		}
	}
}

func pairsEqual(a, b [][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCleanDataHasNoViolations pins the baseline the noise tests rely
// on: golden DCs hold exactly on freshly generated data.
func TestCleanDataHasNoViolations(t *testing.T) {
	for _, name := range []string{"tax", "stock", "hospital"} {
		d, err := datagen.ByName(name, 50, 3)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Check(d.Rel, d.Golden, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean {
			for _, res := range rep.Results {
				if res.Violations > 0 {
					t.Errorf("%s: golden DC %s has %d violations on clean data",
						name, res.Spec, res.Violations)
				}
			}
		}
	}
}

// TestCountingEngages pins that a capped check counts the golden DCs
// instead of enumerating them: the pairs it evaluates to list the first
// ten stay below the violations it reports. An uncapped check and the
// forced scan still enumerate, evaluating at least every violation.
func TestCountingEngages(t *testing.T) {
	for _, name := range []string{"tax", "hospital"} {
		d, err := datagen.ByName(name, 2000, 1)
		if err != nil {
			t.Fatal(err)
		}
		dirty := datagen.AddNoise(d.Rel, datagen.Spread, 0.01, rand.New(rand.NewSource(1)))
		c := NewChecker(dirty)
		counted, err := c.Check(d.Golden, Options{MaxPairs: 10})
		if err != nil {
			t.Fatal(err)
		}
		dirtyDCs := 0
		for _, res := range counted.Results {
			if res.Violations < 100 {
				continue
			}
			dirtyDCs++
			if res.Plan.ActualPairs >= res.Violations {
				t.Errorf("%s: %s evaluated %d pairs for %d violations", name, res.Spec, res.Plan.ActualPairs, res.Violations)
			}
		}
		if dirtyDCs == 0 {
			t.Errorf("%s: no DC with 100 violations; test is vacuous", name)
		}
		for _, opts := range []Options{{}, {Path: PathScan, MaxPairs: 10}} {
			rep, err := c.Check(d.Golden, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range rep.Results {
				if res.Plan.ActualPairs < res.Violations {
					t.Errorf("%s: %s with %+v evaluated %d pairs for %d violations", name, res.Spec, opts, res.Plan.ActualPairs, res.Violations)
				}
			}
		}
	}
}

// sortByValue is a side's ordering as each group sorted it alone before
// sortSides, kept as its oracle: the rows of g whose value in c is not
// NaN, by a comparator sort on the value, ties in row order.
func sortByValue(g []int32, c *dataset.Column) []int32 {
	rows := make([]int32, 0, len(g))
	for _, r := range g {
		if v := c.Num(int(r)); v == v {
			rows = append(rows, r)
		}
	}
	slices.SortFunc(rows, func(a, b int32) int {
		if o := cmp.Compare(c.Num(int(a)), c.Num(int(b))); o != 0 {
			return o
		}
		return cmp.Compare(a, b)
	})
	return rows
}

// sideColumn is a driver column of n rows holding NaNs, both zero
// signs, ±Inf and heavy duplicates.
func sideColumn(rng *rand.Rand, n int) *dataset.Column {
	pick := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1, 2, 2.5, -7}
	v := make([]float64, n)
	for i := range v {
		v[i] = pick[rng.Intn(len(pick))]
	}
	return dataset.NewFloatColumn("d", v)
}

// TestSortSidesMatchesPerGroupSort pins the one-pass side ordering to
// the per-group comparator sort on one giant group, on thousands of
// 2-row groups that leave some rows out, and on sameAttrGroups' groups,
// whose cascade lists them in map order.
func TestSortSidesMatchesPerGroupSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 6000
	d := sideColumn(rng, n)
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	var pairs [][]int32
	perm := rng.Perm(n)
	for x := 0; x+1 < n-100; x += 2 {
		a, b := int32(perm[x]), int32(perm[x+1])
		pairs = append(pairs, []int32{min(a, b), max(a, b)})
	}
	keyA, keyB := make([]string, n), make([]int64, n)
	for i := range keyA {
		keyA[i] = string(rune('a' + rng.Intn(7)))
		keyB[i] = int64(rng.Intn(40))
	}
	rel := dataset.MustNewRelation("sides", []*dataset.Column{
		dataset.NewStringColumn("A", keyA), dataset.NewIntColumn("B", keyB), d,
	})
	cascade := sameAttrGroups(newPLICache(rel), []int{0, 1})

	for _, tc := range []struct {
		name  string
		sides [][]int32
	}{
		{"one giant group", [][]int32{all}},
		{"2-row groups", pairs},
		{"cascade groups", cascade},
		{"no groups", nil},
	} {
		right, vals := sortSides(tc.sides, d)
		if len(right) != len(tc.sides) || len(vals) != len(tc.sides) {
			t.Fatalf("%s: %d sides, %d value lists for %d groups", tc.name, len(right), len(vals), len(tc.sides))
		}
		for k, g := range tc.sides {
			if want := sortByValue(g, d); !slices.Equal(right[k], want) {
				t.Fatalf("%s: side %d = %v, oracle %v", tc.name, k, right[k], want)
			}
			for x, r := range right[k] {
				if math.Float64bits(vals[k][x]) != math.Float64bits(d.Num(int(r))) {
					t.Fatalf("%s: side %d value %d is %v, row %d holds %v", tc.name, k, x, vals[k][x], r, d.Num(int(r)))
				}
			}
		}
	}
}
