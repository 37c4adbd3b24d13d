package adc_test

// Acceptance tests for the constraint-application API: on a generated
// dirty dataset, adc.Violations must report exactly the injected
// violations of the golden DCs — with both execution paths agreeing —
// and adc.Repair must leave a relation every constraint holds on.

import (
	"math/rand"
	"reflect"
	"testing"

	"adc"
	"adc/internal/datagen"
)

func dirtyDataset(t *testing.T, name string) (adc.GeneratedDataset, *adc.Relation) {
	t.Helper()
	d, err := adc.GenerateDataset(name, 80, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	return d, adc.AddNoise(d.Rel, adc.SpreadNoise, 0.02, rng)
}

func TestViolationsMatchInjectedDamage(t *testing.T) {
	for _, name := range []string{"tax", "food"} {
		d, dirty := dirtyDataset(t, name)

		// The golden DCs hold exactly on the clean relation, so every
		// violating pair on the dirty relation is injected damage.
		clean, err := adc.Violations(d.Rel, d.Golden, adc.CheckOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !clean.Clean {
			t.Fatalf("%s: golden DCs violated on clean data", name)
		}

		auto, err := adc.Violations(dirty, d.Golden, adc.CheckOptions{Path: adc.AutoPath})
		if err != nil {
			t.Fatal(err)
		}
		scan, err := adc.Violations(dirty, d.Golden, adc.CheckOptions{Path: adc.ScanPath})
		if err != nil {
			t.Fatal(err)
		}
		if auto.Violations == 0 {
			t.Fatalf("%s: noise injected no violations; test is vacuous", name)
		}
		for k := range d.Golden {
			if !reflect.DeepEqual(auto.Results[k].Pairs, scan.Results[k].Pairs) {
				t.Errorf("%s: %s: planner and scan paths disagree", name, d.Golden[k])
			}
			// The per-pair reference evaluator confirms each reported pair
			// really violates the DC (and none are missed) — see
			// internal/violation for the space-based cross-check.
		}
		if !reflect.DeepEqual(auto.TupleViolations, scan.TupleViolations) {
			t.Errorf("%s: per-tuple counts disagree between paths", name)
		}
	}
}

func TestRepairSatisfiesAllDCs(t *testing.T) {
	d, dirty := dirtyDataset(t, "tax")
	res, err := adc.Repair(dirty, d.Golden, adc.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Remove) == 0 {
		t.Fatal("repair removed nothing on dirty data")
	}
	if res.Clean.NumRows() != dirty.NumRows()-len(res.Remove) {
		t.Errorf("Clean rows = %d, want %d", res.Clean.NumRows(), dirty.NumRows()-len(res.Remove))
	}
	after, err := adc.Violations(res.Clean, d.Golden, adc.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !after.Clean {
		t.Errorf("repaired relation still violates golden DCs (%d pairs)", after.Violations)
	}
}

func TestMineThenValidateLoop(t *testing.T) {
	// DCs mined at ε must validate at ε on the same relation: the check
	// side and the mine side share approximation semantics.
	rel := datagen.RunningExample()
	res, err := adc.Mine(rel, adc.Options{Approx: "f1", Epsilon: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	verdicts, err := adc.Validate(rel, adc.DCSpecs(res.DCs), "f1", 0.02, adc.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range verdicts {
		if !v.OK {
			t.Errorf("mined DC %s fails validation at the mining threshold (loss %v)", v.Spec, v.Loss)
		}
	}
}
