package adc_test

import (
	"math"
	"strings"
	"testing"

	"adc"
	"adc/internal/datagen"
	"adc/internal/metrics"
)

func TestMineRunningExampleF1(t *testing.T) {
	rel := datagen.RunningExample()
	res, err := adc.Mine(rel, adc.Options{Approx: "f1", Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DCs) == 0 {
		t.Fatal("no ADCs mined")
	}
	mined := metrics.KeySet(res.DCs)
	if !mined[datagen.Phi1().Canonical()] {
		t.Error("ϕ1 (the running-example constraint) not mined at ε=0.01")
	}
	if res.Total <= 0 || res.EnumCalls <= 0 {
		t.Error("result stats missing")
	}
	if res.SampleRows != 15 {
		t.Errorf("SampleRows = %d, want 15", res.SampleRows)
	}
}

func TestMineAllApproxFunctions(t *testing.T) {
	rel := datagen.RunningExample()
	for _, fn := range []string{"f1", "f2", "f3"} {
		res, err := adc.Mine(rel, adc.Options{Approx: fn, Epsilon: 0.1})
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		if len(res.DCs) == 0 {
			t.Errorf("%s: no ADCs", fn)
		}
		f, err := adc.ApproxByName(fn)
		if err != nil {
			t.Fatal(err)
		}
		for _, dc := range res.DCs {
			if l := adc.Loss(f, res.Evidence, dc); l > 0.1+1e-12 {
				t.Errorf("%s: mined DC %s has loss %v > ε", fn, dc, l)
			}
		}
	}
}

func TestMineAlgorithmsAgree(t *testing.T) {
	rel := datagen.RunningExample()
	a, err := adc.Mine(rel, adc.Options{Epsilon: 0.02, Algorithm: "adcenum"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := adc.Mine(rel, adc.Options{Epsilon: 0.02, Algorithm: "searchmc"})
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := metrics.KeySet(a.DCs), metrics.KeySet(b.DCs)
	if len(ka) != len(kb) {
		t.Fatalf("adcenum %d DCs, searchmc %d", len(ka), len(kb))
	}
	for k := range ka {
		if !kb[k] {
			t.Fatalf("DC mined by adcenum missing from searchmc")
		}
	}
}

func TestMineValidDCsWithMMCS(t *testing.T) {
	rel := datagen.RunningExample()
	m, err := adc.Mine(rel, adc.Options{Algorithm: "mmcs"})
	if err != nil {
		t.Fatal(err)
	}
	e, err := adc.Mine(rel, adc.Options{Algorithm: "adcenum", Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}
	km, ke := metrics.KeySet(m.DCs), metrics.KeySet(e.DCs)
	if len(km) != len(ke) {
		t.Fatalf("mmcs %d valid DCs, adcenum(ε=0) %d", len(km), len(ke))
	}
	// All valid DCs have zero violations.
	for _, dc := range m.DCs {
		if v := m.Evidence.ViolationCount(dc.HittingSet()); v != 0 {
			t.Errorf("valid DC %s has %d violations", dc, v)
		}
	}
	if _, err := adc.Mine(rel, adc.Options{Algorithm: "mmcs", Epsilon: 0.1}); err == nil {
		t.Error("mmcs with ε>0 should be rejected")
	}
}

func TestMineEvidenceBuildersAgree(t *testing.T) {
	d, _ := datagen.ByName("stock", 60, 3)
	naive, err := adc.Mine(d.Rel, adc.Options{Epsilon: 0.01, Evidence: "naive", MaxPredicates: 3})
	if err != nil {
		t.Fatal(err)
	}
	kn := metrics.KeySet(naive.DCs)
	for _, builder := range []string{"fast", "parallel", "cluster", "auto", ""} {
		res, err := adc.Mine(d.Rel, adc.Options{Epsilon: 0.01, Evidence: builder, MaxPredicates: 3})
		if err != nil {
			t.Fatalf("%q: %v", builder, err)
		}
		kb := metrics.KeySet(res.DCs)
		if len(kb) != len(kn) {
			t.Fatalf("%q mined %d DCs, naive %d", builder, len(kb), len(kn))
		}
		for k := range kb {
			if !kn[k] {
				t.Fatalf("builder %q changed mined DCs", builder)
			}
		}
	}
}

// TestMineSharedIndexes pins the PLI-sharing contract: mining with a
// Checker's index store produces the same DCs, and the store must be
// ignored when mining from a sample (whose rows it does not describe).
func TestMineSharedIndexes(t *testing.T) {
	d, _ := datagen.ByName("stock", 60, 3)
	checker := adc.NewChecker(d.Rel)
	base, err := adc.Mine(d.Rel, adc.Options{Epsilon: 0.01, MaxPredicates: 3})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := adc.Mine(d.Rel, adc.Options{
		Epsilon: 0.01, MaxPredicates: 3, Indexes: checker.Indexes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	kb, ks := metrics.KeySet(base.DCs), metrics.KeySet(shared.DCs)
	if len(kb) != len(ks) {
		t.Fatalf("shared-index mine found %d DCs, base %d", len(ks), len(kb))
	}
	for k := range kb {
		if !ks[k] {
			t.Fatal("shared indexes changed mined DCs")
		}
	}
	if checker.CachedIndexes() == 0 {
		t.Error("mine did not populate the shared index store")
	}
	// Sampled mining with a full-relation store must not misuse it.
	if _, err := adc.Mine(d.Rel, adc.Options{
		Epsilon: 0.01, MaxPredicates: 3, SampleFraction: 0.5, Seed: 2,
		Indexes: checker.Indexes(),
	}); err != nil {
		t.Fatalf("sampled mine with shared indexes: %v", err)
	}
}

func TestMineWithSample(t *testing.T) {
	d, _ := datagen.ByName("stock", 400, 4)
	res, err := adc.Mine(d.Rel, adc.Options{
		Epsilon: 0.01, SampleFraction: 0.3, Alpha: 0.05, Seed: 1, MaxPredicates: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleRows < 100 || res.SampleRows > 140 {
		t.Errorf("SampleRows = %d, want ≈ 120", res.SampleRows)
	}
	if len(res.DCs) == 0 {
		t.Error("no ADCs from sample")
	}
	// Reproducibility: same seed, same result.
	res2, err := adc.Mine(d.Rel, adc.Options{
		Epsilon: 0.01, SampleFraction: 0.3, Alpha: 0.05, Seed: 1, MaxPredicates: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := metrics.KeySet(res.DCs), metrics.KeySet(res2.DCs)
	if len(k1) != len(k2) {
		t.Error("same-seed runs differ")
	}
}

func TestMineGoldenRecallOnCleanStock(t *testing.T) {
	d, _ := datagen.ByName("stock", 150, 6)
	res, err := adc.Mine(d.Rel, adc.Options{Epsilon: 0.0001, MaxPredicates: 3})
	if err != nil {
		t.Fatal(err)
	}
	mined := metrics.KeySet(res.DCs)
	golden := metrics.KeySet(d.Golden)
	if g := metrics.GRecall(mined, golden); g < 0.5 {
		t.Errorf("G-recall on clean stock = %v, want ≥ 0.5 (mined %d DCs)", g, len(res.DCs))
	}
}

func TestMineErrors(t *testing.T) {
	rel := datagen.RunningExample()
	cases := []adc.Options{
		{Approx: "f9"},
		{Algorithm: "bogus"},
		{Evidence: "bogus"},
		{Epsilon: -0.5},
		// ε outside [0, 1): NaN would pass a plain "< 0" check and mine
		// nothing, and ε ≥ 1 yields only the empty DC not().
		{Epsilon: math.NaN()},
		{Epsilon: math.Inf(1)},
		{Epsilon: 1},
	}
	for i, opts := range cases {
		if _, err := adc.Mine(rel, opts); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	if _, err := adc.Mine(rel, adc.Options{Epsilon: 0.99}); err != nil {
		t.Errorf("epsilon 0.99: %v", err)
	}
	if _, err := adc.Mine(nil, adc.Options{}); err == nil {
		t.Error("nil relation: want error")
	}
	one, err := adc.NewRelation("one", []*adc.Column{adc.NewIntColumn("a", []int64{1})})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adc.Mine(one, adc.Options{}); err == nil {
		t.Error("single-row relation: want error")
	}
}

func TestReExportedConstructors(t *testing.T) {
	rel, err := adc.ReadCSV(strings.NewReader("a,b\n1,x\n2,y\n3,x\n"), "t", true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := adc.Mine(rel, adc.Options{Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	col := adc.NewIntColumn("n", []int64{1, 2})
	if col.Name != "n" {
		t.Error("re-exported constructor broken")
	}
	op, err := adc.ParseOperator("<=")
	if err != nil || op != adc.Leq {
		t.Error("re-exported ParseOperator broken")
	}
}

func TestSampleThresholdReExport(t *testing.T) {
	if got := adc.SampleThreshold(0.01, 0.005, 100000, 0.05); got <= 0 || got > 0.01 {
		t.Errorf("SampleThreshold = %v", got)
	}
}
