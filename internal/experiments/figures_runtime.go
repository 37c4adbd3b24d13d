package experiments

import (
	"time"

	"adc"
	"adc/internal/approx"
	"adc/internal/bitset"
	"adc/internal/datagen"
	"adc/internal/evidence"
	"adc/internal/hitset"
	"adc/internal/predicate"
	"adc/internal/searchmc"
)

// timeEnum runs an enumerator over a prebuilt evidence set and returns
// wall time, output count, and recursive calls.
func (c Config) timeEnum(ev *evidence.Set, f approx.Func, eps float64,
	algorithm string, minIntersection bool) (time.Duration, int64, int64) {
	start := time.Now()
	var outputs, calls int64
	switch algorithm {
	case "adcenum":
		// Workers pinned to 1: these figures compare search strategies
		// (ADCEnum vs SearchMC, branch-choice ablation) by wall time, and
		// the auto default would let core count contaminate the comparison.
		stats := hitset.EnumerateADC(ev, hitset.Options{
			Func:                  f,
			Epsilon:               eps,
			Workers:               1,
			MaxPredicates:         c.MaxPredicates,
			ChooseMinIntersection: minIntersection,
		}, func(bitset.Bits) {})
		outputs, calls = stats.Outputs, stats.Calls
	case "searchmc":
		stats := searchmc.Search(ev, searchmc.Options{
			Func:          f,
			Epsilon:       eps,
			MaxPredicates: c.MaxPredicates,
		}, func(bitset.Bits) {})
		outputs, calls = stats.Outputs, stats.Nodes
	}
	return time.Since(start), outputs, calls
}

func buildEvidence(d datagen.Dataset, withVios bool) (*evidence.Set, error) {
	space := predicate.Build(d.Rel, predicate.DefaultOptions())
	return (evidence.ClusterBuilder{}).Build(space, withVios)
}

// Fig6 compares the enumeration time of ADCEnum against the
// SearchMinimalCovers baseline on every dataset (f1, ε = 0.1), the
// paper's headline 2–3x enumeration speedup.
func Fig6(cfg Config) error {
	cfg = cfg.Defaults()
	cfg.printf("Figure 6: enumeration runtime (ms), f1, eps=0.1\n")
	cfg.printf("%-10s %12s %12s %8s %8s\n", "dataset", "ADCEnum", "SearchMC", "#ADCs", "speedup")
	for _, d := range cfg.datasets() {
		ev, err := buildEvidence(d, false)
		if err != nil {
			return err
		}
		tEnum, nEnum, _ := cfg.timeEnum(ev, approx.F1{}, 0.1, "adcenum", false)
		tMC, nMC, _ := cfg.timeEnum(ev, approx.F1{}, 0.1, "searchmc", false)
		speedup := float64(tMC) / float64(tEnum)
		cfg.printf("%-10s %12.2f %12.2f %8d %8.2f\n", d.Name, ms(tEnum), ms(tMC), nEnum, speedup)
		if nEnum != nMC {
			cfg.printf("  WARNING: output mismatch (%d vs %d)\n", nEnum, nMC)
		}
	}
	return nil
}

// Fig7 compares total mining time of the three systems: ADCMiner
// (default bit-level evidence + ADCEnum), DCFinder (the same evidence +
// SearchMC), and AFASTDC (naive evidence + SearchMC). As in the paper, evidence
// construction dominates and the gap between ADCMiner and DCFinder is
// modest while AFASTDC trails badly.
func Fig7(cfg Config) error {
	cfg = cfg.Defaults()
	systems := []struct {
		name                string
		evidence, algorithm string
	}{
		{"ADCMiner", "", "adcenum"},
		{"DCFinder", "", "searchmc"},
		{"AFASTDC", "naive", "searchmc"},
	}
	cfg.printf("Figure 7: total runtime (ms), f1, eps=0.1\n")
	cfg.printf("%-10s %12s %12s %12s\n", "dataset", systems[0].name, systems[1].name, systems[2].name)
	for _, d := range cfg.datasets() {
		cfg.printf("%-10s", d.Name)
		for _, sys := range systems {
			opts := cfg.mineOpts("f1", 0.1)
			opts.Evidence = sys.evidence
			opts.Algorithm = sys.algorithm
			res, err := adc.Mine(d.Rel, opts)
			if err != nil {
				return err
			}
			cfg.printf(" %12.2f", ms(res.Total))
		}
		cfg.printf("\n")
	}
	return nil
}

// Fig8 breaks the runtime of ADCMiner down by approximation function:
// total, enumeration only, and evidence construction only. The paper's
// finding: enumeration cost is nearly identical across f1/f2/f3 and the
// total is dominated by evidence construction.
func Fig8(cfg Config) error {
	cfg = cfg.Defaults()
	fns := []string{"f1", "f2", "f3"}
	cfg.printf("Figure 8: ADCMiner runtime (ms) by approximation function, eps=0.1\n")
	cfg.printf("%-10s %-9s %10s %10s %10s\n", "dataset", "func", "total", "enum", "evidence")
	for _, d := range cfg.datasets() {
		for _, fn := range fns {
			res, err := adc.Mine(d.Rel, cfg.mineOpts(fn, 0.1))
			if err != nil {
				return err
			}
			cfg.printf("%-10s %-9s %10.2f %10.2f %10.2f\n",
				d.Name, fn, ms(res.Total), ms(res.EnumTime), ms(res.EvidenceTime))
		}
	}
	return nil
}

// Fig9 sweeps the sample size (20%..100%) and times both enumerators on
// the sample's evidence set. As in the paper, enumeration time is fairly
// flat across sample sizes (it depends on distinct evidence sets, which
// saturate) while ADCEnum stays ahead of SearchMC.
func Fig9(cfg Config) error {
	cfg = cfg.Defaults()
	fractions := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	cfg.printf("Figure 9: enumeration runtime (ms) vs sample size, f1, eps=0.1\n")
	cfg.printf("%-10s %8s %12s %12s\n", "dataset", "sample", "ADCEnum", "SearchMC")
	for _, d := range cfg.datasets() {
		for _, frac := range fractions {
			opts := cfg.mineOpts("f1", 0.1)
			opts.SampleFraction = frac
			resEnum, err := adc.Mine(d.Rel, opts)
			if err != nil {
				return err
			}
			opts.Algorithm = "searchmc"
			resMC, err := adc.Mine(d.Rel, opts)
			if err != nil {
				return err
			}
			cfg.printf("%-10s %7.0f%% %12.2f %12.2f\n",
				d.Name, frac*100, ms(resEnum.EnumTime), ms(resMC.EnumTime))
		}
	}
	return nil
}

// Fig10 is the branch-choice ablation on Tax, Stock and Hospital: the
// paper's max-intersection rule versus Murakami and Uno's
// min-intersection rule, for all three approximation functions. The
// reproduction reports both wall time and total recursive calls (the
// paper's explanation for the win).
func Fig10(cfg Config) error {
	cfg = cfg.Defaults()
	cfg.Datasets = intersect(cfg.Datasets, []string{"tax", "stock", "hospital"})
	cfg.printf("Figure 10: ADCEnum branch choice, eps=0.1 (ms / recursive calls)\n")
	cfg.printf("%-10s %-9s %12s %12s %10s %10s\n",
		"dataset", "func", "max-inter", "min-inter", "callsMax", "callsMin")
	for _, d := range cfg.datasets() {
		evPlain, err := buildEvidence(d, true)
		if err != nil {
			return err
		}
		for _, fn := range []string{"f1", "f2", "f3"} {
			f, err := approx.ForName(fn)
			if err != nil {
				return err
			}
			tMax, _, callsMax := cfg.timeEnum(evPlain, f, 0.1, "adcenum", false)
			tMin, _, callsMin := cfg.timeEnum(evPlain, f, 0.1, "adcenum", true)
			cfg.printf("%-10s %-9s %12.2f %12.2f %10d %10d\n",
				d.Name, fn, ms(tMax), ms(tMin), callsMax, callsMin)
		}
	}
	return nil
}

func intersect(a, b []string) []string {
	in := map[string]bool{}
	for _, x := range b {
		in[x] = true
	}
	var out []string
	for _, x := range a {
		if in[x] {
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		return b
	}
	return out
}
