package violation

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"adc/internal/datagen"
	"adc/internal/dataset"
	"adc/internal/predicate"
)

func checkerFixture(t *testing.T) (*dataset.Relation, []predicate.DCSpec) {
	t.Helper()
	rel := dataset.MustNewRelation("tax", []*dataset.Column{
		dataset.NewStringColumn("State", []string{"NY", "NY", "CA", "CA", "NY"}),
		dataset.NewIntColumn("Zip", []int64{10001, 10001, 90210, 90210, 10001}),
		dataset.NewIntColumn("Salary", []int64{50, 60, 70, 80, 55}),
		dataset.NewIntColumn("Tax", []int64{5, 6, 7, 8, 9}),
	})
	spec, err := predicate.ParseDCSpec("not(t.Zip = t'.Zip and t.State != t'.State)")
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := predicate.ParseDCSpec("not(t.State = t'.State and t.Salary > t'.Salary and t.Tax <= t'.Tax)")
	if err != nil {
		t.Fatal(err)
	}
	return rel, []predicate.DCSpec{spec, spec2}
}

func TestCheckerMatchesCheckAndCachesPlans(t *testing.T) {
	rel, specs := checkerFixture(t)
	want, err := Check(rel, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(rel)
	for round := 0; round < 3; round++ {
		got, err := c.Check(specs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: Checker report differs from Check", round)
		}
	}
	hits, misses := c.PlanStats()
	if misses != int64(len(specs)) {
		t.Errorf("plan misses = %d, want %d", misses, len(specs))
	}
	if hits != int64(2*len(specs)) {
		t.Errorf("plan hits = %d, want %d", hits, 2*len(specs))
	}
	if c.MemBytes() <= 0 {
		t.Errorf("MemBytes = %d, want > 0", c.MemBytes())
	}
}

// TestCheckerMemBytesCountsCountPlans checks that the count phase's
// per-plan arrays are charged: once uncapped checks have built the
// grouped plans, warm capped checks build the count plans, and MemBytes
// grows by at least the ≠ DC's class ids and the order DC's sweep
// points.
func TestCheckerMemBytesCountsCountPlans(t *testing.T) {
	rel, specs := checkerFixture(t)
	c := NewChecker(rel)
	if _, err := c.Check(specs, Options{}); err != nil {
		t.Fatal(err)
	}
	before := c.MemBytes()
	for round := 0; round < 3; round++ {
		if _, err := c.Check(specs, Options{MaxPairs: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var classBytes, pointBytes int64
	for _, spec := range specs {
		p, err := c.plan(spec)
		if err != nil {
			t.Fatal(err)
		}
		cp := p.cnt.Load()
		if cp == nil {
			t.Fatalf("%s: no count plan after capped checks", spec)
		}
		for _, cls := range cp.classes {
			classBytes += int64(len(cls)) * int64(unsafe.Sizeof(int32(0)))
		}
		pointBytes += int64(len(cp.ptRows)+len(cp.ptR1)+len(cp.ptR2)) * int64(unsafe.Sizeof(int32(0)))
	}
	if classBytes == 0 || pointBytes == 0 {
		t.Fatalf("class bytes %d, point bytes %d: the fixture lost its ≠ or order DC", classBytes, pointBytes)
	}
	if grew := c.MemBytes() - before; grew < classBytes+pointBytes {
		t.Errorf("MemBytes grew %d bytes over capped checks, want at least %d (classes %d, points %d)",
			grew, classBytes+pointBytes, classBytes, pointBytes)
	}
}

// TestCheckerConcurrentChecks shares one Checker between goroutines
// that alternate uncapped (enumerated) and capped (counted, on two
// workers) checks.
func TestCheckerConcurrentChecks(t *testing.T) {
	rel, specs := checkerFixture(t)
	opts := []Options{{}, {MaxPairs: 1, Workers: 2}}
	var want []*Report
	for _, o := range opts {
		rep, err := Check(rel, specs, o)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rep)
	}
	c := NewChecker(rel)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 6; k++ {
				got, err := c.Check(specs, opts[(w+k)%2])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[(w+k)%2]) {
					t.Error("concurrent Checker report differs from Check")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestCheckerAppendRows(t *testing.T) {
	rel, specs := checkerFixture(t)
	c := NewChecker(rel)
	before, err := c.Check(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// A CA row under NY's zip: one new violating tuple against each of
	// the three existing 10001 rows (both orders) for the zip/state DC.
	next, _, _, err := c.AppendRows([][]string{{"CA", "10001", "65", "6"}})
	if err != nil {
		t.Fatal(err)
	}
	grown, err := rel.AppendRows([][]string{{"CA", "10001", "65", "6"}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Check(grown, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := next.Check(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-append Checker report differs from a fresh Check")
	}
	if got.Violations <= before.Violations {
		t.Fatalf("appended dirty row did not raise violations: %d -> %d", before.Violations, got.Violations)
	}

	// The old checker still answers for the old rows.
	after, err := c.Check(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("old Checker changed after AppendRows")
	}
}

func TestCheckerAppendRowsError(t *testing.T) {
	rel, _ := checkerFixture(t)
	c := NewChecker(rel)
	if _, _, _, err := c.AppendRows([][]string{{"CA", "not-a-zip", "65", "6"}}); err == nil {
		t.Fatal("appending a non-int zip succeeded")
	}
}

// memBytesWalk is Checker.MemBytes summed group by group at call time,
// the oracle for the totals the plan builds keep.
func memBytesWalk(c *Checker) int64 {
	b := c.cache.store.MemBytes()
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, p := range c.plans {
		b += int64(len(p.mask))
		b += int64(len(p.singles)+len(p.cross)) * 64
		if gp := p.grp.Load(); gp != nil {
			b += int64(len(gp.offs)) * 8
			sides := [][][]int32{gp.left}
			if gp.driver != nil || gp.shape == ShapeCrossJoin {
				sides = append(sides, gp.right) // not the left rows again
			}
			for _, side := range sides {
				for _, g := range side {
					b += int64(len(g))*4 + 24
				}
			}
			for _, v := range gp.vals {
				b += int64(len(v))*8 + 24
			}
		}
		if cp := p.cnt.Load(); cp != nil {
			for _, cls := range cp.classes {
				b += int64(len(cls))*4 + 24
			}
			b += int64(len(cp.ptRows)+len(cp.ptR1)+len(cp.ptR2))*4 + int64(len(cp.ptOffs))*8
		}
	}
	return b
}

// TestCheckerMemBytesMatchesWalk checks MemBytes against the walk
// after enumerated, counted and grouped checks of four datasets'
// golden DCs (eqjoin, range and scan plans, ≠ classes and sweep
// points) and of a crossjoin.
func TestCheckerMemBytesMatchesWalk(t *testing.T) {
	type tc struct {
		rel   *dataset.Relation
		specs []predicate.DCSpec
	}
	var cases []tc
	for _, name := range []string{"tax", "hospital", "adult", "stock"} {
		d, err := datagen.ByName(name, 300, 3)
		if err != nil {
			t.Fatal(err)
		}
		dirty := datagen.AddNoise(d.Rel, datagen.Spread, 0.02, rand.New(rand.NewSource(4)))
		cases = append(cases, tc{dirty, d.Golden})
	}
	cases = append(cases, tc{
		dataset.MustNewRelation("xest", []*dataset.Column{
			dataset.NewIntColumn("A", []int64{1, 2, 3, 4, 1, 2}),
			dataset.NewIntColumn("B", []int64{2, 1, 9, 9, 2, 1}),
			dataset.NewIntColumn("C", []int64{7, 7, 7, 7, 7, 7}),
		}),
		[]predicate.DCSpec{{
			{A: "A", B: "B", Op: predicate.Eq, Cross: true},
			{A: "C", B: "C", Op: predicate.Lt, Cross: true},
		}},
	})
	for _, k := range cases {
		c := NewChecker(k.rel)
		for _, opts := range []Options{{}, {MaxPairs: 1}} {
			if _, err := c.Check(k.specs, opts); err != nil {
				t.Fatal(err)
			}
			if got, want := c.MemBytes(), memBytesWalk(c); got != want {
				t.Errorf("%s %+v: MemBytes = %d, walk %d", k.rel.Name, opts, got, want)
			}
		}
		for _, spec := range k.specs {
			p, err := c.plan(spec)
			if err != nil {
				t.Fatal(err)
			}
			p.groupPlan(c.cache)
		}
		if got, want := c.MemBytes(), memBytesWalk(c); got != want {
			t.Errorf("%s grouped: MemBytes = %d, walk %d", k.rel.Name, got, want)
		}
	}
}
