// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 8) on the calibrated synthetic datasets
// of package datagen. Each runner prints the same rows/series the paper
// reports; absolute numbers differ (the substrate is a laptop-scale
// generator, not the authors' testbed) but the shapes — who wins, by
// what factor, where crossovers fall — are the reproduction target.
// See DESIGN.md for the experiment-to-module index and EXPERIMENTS.md
// for recorded paper-vs-measured outcomes.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"adc"
	"adc/internal/datagen"
	"adc/internal/evidence"
	"adc/internal/metrics"
	"adc/internal/predicate"
)

// Config scales and directs an experiment run.
type Config struct {
	// Rows is the generated size of each dataset (the paper's datasets
	// are 32K–1M rows; the default keeps every figure reproducible in
	// minutes on a laptop).
	Rows int
	// Seed drives data generation and sampling.
	Seed int64
	// MaxPredicates bounds DC length during enumeration, keeping the
	// exponential output space tractable at experiment scale.
	MaxPredicates int
	// Datasets restricts the run to the named datasets (nil = all).
	Datasets []string
	// Out receives the printed rows.
	Out io.Writer
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.Rows == 0 {
		c.Rows = 200
	}
	if c.MaxPredicates == 0 {
		c.MaxPredicates = 4
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	if len(c.Datasets) == 0 {
		c.Datasets = datagen.Names()
	}
	return c
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// datasets generates the configured datasets.
func (c Config) datasets() []datagen.Dataset {
	out := make([]datagen.Dataset, 0, len(c.Datasets))
	for i, name := range c.Datasets {
		d, err := datagen.ByName(name, c.Rows, c.Seed+int64(i))
		if err != nil {
			panic(err)
		}
		out = append(out, d)
	}
	return out
}

// Runner is one reproducible experiment.
type Runner struct {
	Name  string
	Title string
	Run   func(Config) error
}

// All lists every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"table4", "Table 4: dataset inventory", Table4},
		{"fig6", "Figure 6: ADCEnum vs SearchMC enumeration time", Fig6},
		{"fig7", "Figure 7: total runtime ADCMiner vs DCFinder vs AFASTDC", Fig7},
		{"fig8", "Figure 8: runtime by approximation function", Fig8},
		{"fig9", "Figure 9: enumeration time vs sample size", Fig9},
		{"fig10", "Figure 10: max vs min intersection branch choice", Fig10},
		{"fig11", "Figure 11: F1 score vs sample size and threshold", Fig11},
		{"fig12", "Figure 12: total runtime vs sample size", Fig12},
		{"fig13", "Figure 13: average ε − p̂ vs sample size", Fig13},
		{"fig14", "Figure 14: G-recall vs threshold under noise", Fig14},
		{"table5", "Table 5: approximate vs valid DCs", Table5},
		{"check", "Check: mined-DC violations vs golden violations (precision/recall)", FigCheck},
	}
}

// ByName finds a runner.
func ByName(name string) (Runner, error) {
	for _, r := range All() {
		if r.Name == name {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", name)
}

// Table4 prints the dataset inventory: generated size, the paper's
// size, attribute count, golden DCs, predicate-space size and distinct
// evidence sets — the shape drivers of every later figure.
func Table4(cfg Config) error {
	cfg = cfg.Defaults()
	cfg.printf("Table 4: datasets (generated at %d rows; paper sizes for reference)\n", cfg.Rows)
	cfg.printf("%-10s %8s %10s %7s %8s %7s %9s\n",
		"dataset", "rows", "paperRows", "attrs", "golden", "|P|", "|Evi|")
	for _, d := range cfg.datasets() {
		space := predicate.Build(d.Rel, predicate.DefaultOptions())
		ev, err := (evidence.ClusterBuilder{}).Build(space, false)
		if err != nil {
			return err
		}
		cfg.printf("%-10s %8d %10d %7d %8d %7d %9d\n",
			d.Name, d.Rel.NumRows(), d.PaperRows, d.Rel.NumColumns(),
			len(d.Golden), space.Size(), ev.Distinct())
	}
	return nil
}

// mineOpts builds common mining options.
func (c Config) mineOpts(fn string, eps float64) adc.Options {
	return adc.Options{
		Approx:        fn,
		Epsilon:       eps,
		MaxPredicates: c.MaxPredicates,
		Seed:          c.Seed,
	}
}

// keySetOf canonicalizes mined DCs.
func keySetOf(dcs []adc.DC) map[string]bool { return metrics.KeySet(dcs) }

// goldenKeys canonicalizes the golden DCs of a dataset.
func goldenKeys(d datagen.Dataset) map[string]bool { return metrics.KeySet(d.Golden) }

// ms renders a duration in milliseconds with fixed width.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// sortedKeys returns map keys in sorted order, for deterministic output.
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
