package adc_test

// Golden-snapshot tests for mined DC sets: the full pipeline (sample →
// predicate space → evidence → enumeration) runs on the seeded small
// datasets and the sorted DC strings are compared against checked-in
// testdata files, so an enumeration regression surfaces as a readable
// diff of constraints rather than a count mismatch. Regenerate with
//
//	go test -run TestGoldenMinedDCs -update-golden .
//
// after an intentional change, and review the diff like any other code.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adc"
	"adc/internal/datagen"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden snapshots")

type goldenCase struct {
	dataset string
	rows    int
	opts    adc.Options
}

// goldenCases fixes every knob that feeds the mined set: generator seed
// (datagen), sampler seed (Options.Seed), approximation function, ε,
// and the DC length cap. The four datasets cover the equal-heavy
// (adult), FD-rich (tax), mixed (hospital) and order-heavy numeric
// (stock) workload classes, and between them every built-in function:
// f1 on adult and tax, f2 on hospital, greedy f3 on stock.
var goldenCases = []goldenCase{
	{"adult", 80, adc.Options{Approx: "f1", Epsilon: 0.02, MaxPredicates: 3, SampleFraction: 0.5, Seed: 7}},
	{"tax", 80, adc.Options{Approx: "f1", Epsilon: 0.01, MaxPredicates: 2, SampleFraction: 0.5, Seed: 7}},
	{"hospital", 80, adc.Options{Approx: "f2", Epsilon: 0.05, MaxPredicates: 2, SampleFraction: 0.5, Seed: 7}},
	{"stock", 80, adc.Options{Approx: "f3", Epsilon: 0.05, MaxPredicates: 2, SampleFraction: 0.5, Seed: 7}},
}

func goldenPath(c goldenCase) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s_%s_eps%g.dcs",
		c.dataset, c.opts.Approx, c.opts.Epsilon))
}

func mineGolden(t *testing.T, c goldenCase, workers int) []string {
	t.Helper()
	d, err := datagen.ByName(c.dataset, c.rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := c.opts
	opts.Workers = workers
	res, err := adc.Mine(d.Rel, opts)
	if err != nil {
		t.Fatal(err)
	}
	adc.SortDCs(res.DCs)
	out := make([]string, len(res.DCs))
	for i, dc := range res.DCs {
		out[i] = dc.String()
	}
	return out
}

func TestGoldenMinedDCs(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.dataset, func(t *testing.T) {
			got := mineGolden(t, c, 1)
			if len(got) == 0 {
				t.Fatal("mined no DCs; golden case is vacuous")
			}
			path := goldenPath(c)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden): %v", err)
			}
			want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
			if len(got) != len(want) {
				t.Fatalf("mined %d DCs, golden has %d\ngot:\n%s", len(got), len(want), strings.Join(got, "\n"))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("DC %d:\n  got  %s\n  want %s", i, got[i], want[i])
				}
			}

			// The parallel enumerator must reproduce the golden set
			// bit-for-bit; this is the end-to-end half of the
			// serial/parallel identity the hitset tests check in vitro.
			parallel := mineGolden(t, c, 8)
			if strings.Join(parallel, "\n") != strings.Join(got, "\n") {
				t.Errorf("8-worker mine diverges from golden set: %d vs %d DCs", len(parallel), len(got))
			}
		})
	}
}
