package adc_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 8), each delegating to the corresponding runner in
// internal/experiments, plus micro-benchmarks of the pipeline stages.
//
// Figure benchmarks run the full experiment per iteration at a reduced
// scale (see benchRows) so `go test -bench=.` completes in minutes; to
// regenerate the figures at larger scale with readable output, use
//
//	go run ./cmd/experiments -run all -rows 400
//
// EXPERIMENTS.md records the measured shapes against the paper's.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"adc"
	"adc/internal/approx"
	"adc/internal/bitset"
	"adc/internal/colstore"
	"adc/internal/datagen"
	"adc/internal/dataset"
	"adc/internal/evidence"
	"adc/internal/experiments"
	"adc/internal/hitset"
	"adc/internal/pli"
	"adc/internal/predicate"
	"adc/internal/searchmc"
)

const (
	benchRows  = 80
	benchSeed  = 1
	benchPreds = 3
)

// benchCfg builds a scaled-down experiment config. The lightest two
// datasets keep per-iteration cost low; heavy runners reduce further.
func benchCfg(rows, maxPreds int, datasets ...string) experiments.Config {
	if len(datasets) == 0 {
		datasets = []string{"stock", "adult"}
	}
	return experiments.Config{
		Rows:          rows,
		Seed:          benchSeed,
		MaxPredicates: maxPreds,
		Datasets:      datasets,
		Out:           io.Discard,
	}
}

func runFigure(b *testing.B, cfg experiments.Config, run func(experiments.Config) error) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- One benchmark per table/figure (Section 8) -------------------------

func BenchmarkTable4Datasets(b *testing.B) {
	runFigure(b, benchCfg(benchRows, benchPreds), experiments.Table4)
}

func BenchmarkFig6EnumVsSearchMC(b *testing.B) {
	runFigure(b, benchCfg(benchRows, benchPreds), experiments.Fig6)
}

func BenchmarkFig7TotalRuntime(b *testing.B) {
	runFigure(b, benchCfg(benchRows, benchPreds), experiments.Fig7)
}

func BenchmarkFig8ApproxFunctions(b *testing.B) {
	runFigure(b, benchCfg(benchRows, benchPreds), experiments.Fig8)
}

func BenchmarkFig9SampleSweep(b *testing.B) {
	runFigure(b, benchCfg(benchRows, benchPreds), experiments.Fig9)
}

func BenchmarkFig10BranchChoice(b *testing.B) {
	runFigure(b, benchCfg(benchRows, benchPreds, "stock", "hospital"), experiments.Fig10)
}

func BenchmarkFig11SampleAccuracy(b *testing.B) {
	runFigure(b, benchCfg(50, 2, "stock"), experiments.Fig11)
}

func BenchmarkFig12SampleRuntime(b *testing.B) {
	runFigure(b, benchCfg(benchRows, benchPreds), experiments.Fig12)
}

func BenchmarkFig13EpsilonGap(b *testing.B) {
	runFigure(b, benchCfg(benchRows, benchPreds), experiments.Fig13)
}

func BenchmarkFig14GRecall(b *testing.B) {
	runFigure(b, benchCfg(50, 2, "stock"), experiments.Fig14)
}

func BenchmarkTable5ADCvsValid(b *testing.B) {
	runFigure(b, benchCfg(50, 2, "stock", "adult"), experiments.Table5)
}

func BenchmarkCheckQuality(b *testing.B) {
	runFigure(b, benchCfg(50, 2, "stock"), experiments.FigCheck)
}

// ---- Pipeline-stage micro-benchmarks -------------------------------------

func benchDataset(b *testing.B, name string, rows int) datagen.Dataset {
	b.Helper()
	d, err := datagen.ByName(name, rows, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkPredicateSpace(b *testing.B) {
	d := benchDataset(b, "tax", 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		predicate.Build(d.Rel, predicate.DefaultOptions())
	}
}

// BenchmarkEvidenceCluster is the default builder on stock, the worst
// case for it (near-zero signature compression). Every evidence
// benchmark pins Workers: 1 so the CI gates compare algorithms, not
// core counts.
func BenchmarkEvidenceCluster(b *testing.B) {
	d := benchDataset(b, "stock", 200)
	space := predicate.Build(d.Rel, predicate.DefaultOptions())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (evidence.ClusterBuilder{Workers: 1}).Build(space, false); err != nil {
			b.Fatal(err)
		}
	}
}

// The adult dataset is categorical and equal-heavy — the workload class
// the cluster builder targets (super-rows collapse, rank runs are
// long). The CI evidence gate compares the next two benchmarks and
// requires cluster ≥ 6x naive.
func BenchmarkEvidenceNaiveAdult(b *testing.B) {
	d := benchDataset(b, "adult", 200)
	space := predicate.Build(d.Rel, predicate.DefaultOptions())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (evidence.NaiveBuilder{}).Build(space, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvidenceClusterAdult(b *testing.B) {
	d := benchDataset(b, "adult", 200)
	space := predicate.Build(d.Rel, predicate.DefaultOptions())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (evidence.ClusterBuilder{Workers: 1}).Build(space, false); err != nil {
			b.Fatal(err)
		}
	}
}

// deltaBenchOnce builds the incremental-maintenance gate workload once:
// adult at 2000 rows with a 1% append (20 rows duplicating existing
// rows, so every appended value already occurs and the grown predicate
// space keeps the base structure — Delta never falls back). The
// fixture holds the base evidence and the grown space; the two
// benchmarks below then time the two ways of reaching the grown
// relation's evidence.
type deltaBenchFixture struct {
	space *predicate.Space // grown relation's predicate space
	prev  *evidence.Set    // base (pre-append) evidence
}

var deltaBenchOnce = sync.OnceValues(func() (*deltaBenchFixture, error) {
	d, err := datagen.ByName("adult", 2000, benchSeed)
	if err != nil {
		return nil, err
	}
	base := d.Rel
	recs := make([][]string, 20)
	for i := range recs {
		rec := make([]string, len(base.Columns))
		for j, c := range base.Columns {
			rec[j] = c.ValueString(i)
		}
		recs[i] = rec
	}
	grown, err := base.AppendRows(recs)
	if err != nil {
		return nil, err
	}
	popts := predicate.DefaultOptions()
	prev, err := (evidence.ClusterBuilder{Workers: 1}).Build(predicate.Build(base, popts), false)
	if err != nil {
		return nil, err
	}
	space := predicate.Build(grown, popts)
	if _, _, err := (evidence.ClusterBuilder{Workers: 1}).Delta(prev, space); err != nil {
		return nil, fmt.Errorf("delta fixture is not delta-maintainable: %w", err)
	}
	return &deltaBenchFixture{space: space, prev: prev}, nil
})

// The CI gate compares the next two benchmarks (BENCH_delta.json records
// the ratio, min of 3 runs) and requires the incremental path ≥ 5x the
// scratch rebuild, both on one worker; the differential suite in
// internal/evidence proves the two outputs identical.
func BenchmarkEvidenceDeltaScratch(b *testing.B) {
	fx, err := deltaBenchOnce()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (evidence.ClusterBuilder{Workers: 1}).Build(fx.space, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvidenceDeltaDelta(b *testing.B) {
	fx, err := deltaBenchOnce()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := (evidence.ClusterBuilder{Workers: 1}).Delta(fx.prev, fx.space); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvidenceNaive(b *testing.B) {
	d := benchDataset(b, "stock", 200)
	space := predicate.Build(d.Rel, predicate.DefaultOptions())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (evidence.NaiveBuilder{}).Build(space, false); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEvidence builds the enumeration benchmarks' input with the naive
// oracle, whose distinct-set order (pair order) does not depend on the
// production builder's tiling; the build is excluded from the timing.
func benchEvidence(b *testing.B, withVios bool) *evidence.Set {
	b.Helper()
	d := benchDataset(b, "stock", 150)
	space := predicate.Build(d.Rel, predicate.DefaultOptions())
	ev, err := (evidence.NaiveBuilder{}).Build(space, withVios)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	return ev
}

func BenchmarkADCEnumF1(b *testing.B) {
	ev := benchEvidence(b, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hitset.EnumerateADC(ev, hitset.Options{
			Func: approx.F1{}, Epsilon: 0.01, MaxPredicates: benchPreds,
		}, func(bitset.Bits) {})
	}
}

// ---- Ingest & indexing benchmarks (cold-path front end) ------------------

// The ingest gate workload is adult at 20k rows — categorical columns
// with realistic dictionary pressure plus numeric columns with wide
// domains, written to CSV once and re-parsed per iteration. Each
// iteration runs the full cold front end: streaming CSV parse plus PLI
// construction for every column, i.e. what every dcserved dataset
// registration and every cold Mine/Validate pays.
var ingestCSVOnce = sync.OnceValue(func() []byte {
	d, err := datagen.ByName("adult", 20000, benchSeed)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := d.Rel.WriteCSV(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

func benchIngest(b *testing.B, workers int) {
	raw := ingestCSVOnce()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := dataset.ReadCSVOptions(bytes.NewReader(raw), "adult", true,
			dataset.IngestOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		idx := pli.BuildIndexes(rel.Columns, nil, workers)
		if idx[0] == nil {
			b.Fatal("no index built")
		}
	}
}

// The CI gate compares the next two benchmarks (BENCH_ingest.json
// records the ratio, min of 3 runs) and requires parallel ≥ 2x serial
// at 8 workers; the differential tests prove the outputs identical.
func BenchmarkIngestSerial(b *testing.B)    { benchIngest(b, 1) }
func BenchmarkIngestParallel8(b *testing.B) { benchIngest(b, 8) }

// BenchmarkPLIBuild isolates the indexing half: all-column PLI
// construction (a counting sort over dictionary codes for strings,
// clusters carved from the radix value ordering, pli.Order, for
// numerics) on the already-parsed relation, serial, so the stage table
// can report parse and index costs separately.
func BenchmarkPLIBuild(b *testing.B) {
	rel, err := dataset.ReadCSVOptions(bytes.NewReader(ingestCSVOnce()), "adult", true,
		dataset.IngestOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx := pli.BuildIndexes(rel.Columns, nil, 1); idx[0] == nil {
			b.Fatal("no index built")
		}
	}
}

// ---- Snapshot persistence benchmarks (internal/colstore) -----------------

// snapshotFileOnce writes the storage-gate snapshot once: the adult-20k
// ingest workload with every column's PLI warm — exactly the state
// BenchmarkColdIngest rebuilds from CSV on each iteration. The file
// lands in a temp directory the OS owns; benchmarks only read it.
var snapshotFileOnce = sync.OnceValues(func() (string, error) {
	rel, err := dataset.ReadCSVOptions(bytes.NewReader(ingestCSVOnce()), "adult", true,
		dataset.IngestOptions{})
	if err != nil {
		return "", err
	}
	store := pli.NewStore(rel.Columns)
	store.Warm(nil, 0)
	dir, err := os.MkdirTemp("", "adc-bench-snapshot-")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "adult.adcs")
	if err := adc.SaveSnapshot(path, rel, store); err != nil {
		return "", err
	}
	return path, nil
})

// BenchmarkColdIngest is the baseline the storage gate compares against:
// the serial cold front end (CSV parse plus all-column PLI build) that a
// snapshot replaces. The CI gate (BENCH_store.json, min of 3 runs)
// requires BenchmarkSnapshotLoad ≥ 3x faster than this.
func BenchmarkColdIngest(b *testing.B) {
	raw := ingestCSVOnce()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := dataset.ReadCSVOptions(bytes.NewReader(raw), "adult", true,
			dataset.IngestOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		store := pli.NewStore(rel.Columns)
		if store.Warm(nil, 1) == 0 {
			b.Fatal("no index built")
		}
	}
}

// BenchmarkSnapshotLoad fully decodes the same relation and warm
// indexes from the snapshot file into heap-backed structures — the
// dcserved restart / spilled-session restore path (modulo mmap, which
// BenchmarkSnapshotAttach isolates below).
func BenchmarkSnapshotLoad(b *testing.B) {
	path, err := snapshotFileOnce()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, store, err := adc.LoadSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		if rel.NumRows() == 0 || store.CachedColumns() == 0 {
			b.Fatal("snapshot restored empty")
		}
	}
}

// BenchmarkSnapshotAttach maps the file instead of decoding it: column
// arrays and cluster maps alias the mapping and page in on first touch,
// so the measured cost is headers, checksums, and small fix-ups only.
// It uses colstore directly for the Close the package API (deliberately)
// does not expose, so iterations do not accumulate mappings.
func BenchmarkSnapshotAttach(b *testing.B) {
	path, err := snapshotFileOnce()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := colstore.Attach(path)
		if err != nil {
			b.Fatal(err)
		}
		store, err := pli.RestoreStore(snap.Relation.Columns, snap.Indexes)
		if err != nil {
			b.Fatal(err)
		}
		if store.CachedColumns() == 0 {
			b.Fatal("snapshot restored cold")
		}
		if err := snap.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Enumeration-stage benchmarks (serial vs parallel ADCEnum) -----------

// benchEnumEvidence builds the enumeration gate workload once: adult is
// categorical and equal-heavy, and at 80 rows / ε=0.02 the ADCEnum tree
// is a few tens of thousands of nodes — deep enough that 8 workers stay
// busy on handed-off subtrees, small enough for CI.
func benchEnumEvidence(b *testing.B) *evidence.Set {
	b.Helper()
	d := benchDataset(b, "adult", 80)
	space := predicate.Build(d.Rel, predicate.DefaultOptions())
	ev, err := (evidence.ClusterBuilder{Workers: 1}).Build(space, false)
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

func benchEnumWorkers(b *testing.B, workers int) {
	ev := benchEnumEvidence(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hitset.EnumerateADC(ev, hitset.Options{
			Func: approx.F1{}, Epsilon: 0.02, MaxPredicates: benchPreds, Workers: workers,
		}, func(bitset.Bits) {})
	}
}

// The CI gate compares the next two benchmarks (BENCH_enum.json records
// the ratio, min of 3 runs) and requires parallel ≥ 1.8x serial; the
// worker sweep in between is the scaling curve of EXPERIMENTS.md.
func BenchmarkEnumSerialAdult(b *testing.B)   { benchEnumWorkers(b, 1) }
func BenchmarkEnumWorkers2Adult(b *testing.B) { benchEnumWorkers(b, 2) }
func BenchmarkEnumWorkers4Adult(b *testing.B) { benchEnumWorkers(b, 4) }
func BenchmarkEnumParallelAdult(b *testing.B) { benchEnumWorkers(b, 8) }

func BenchmarkSearchMCF1(b *testing.B) {
	ev := benchEvidence(b, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		searchmc.Search(ev, searchmc.Options{
			Func: approx.F1{}, Epsilon: 0.01, MaxPredicates: benchPreds,
		}, func(bitset.Bits) {})
	}
}

func BenchmarkMMCSValid(b *testing.B) {
	ev := benchEvidence(b, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hitset.EnumerateMinimal(ev, hitset.Options{MaxPredicates: benchPreds},
			func(bitset.Bits) {})
	}
}

func BenchmarkGreedyF3Loss(b *testing.B) {
	ev := benchEvidence(b, true)
	uncovered := make([]int, ev.Distinct())
	for i := range uncovered {
		uncovered[i] = i
	}
	f := approx.GreedyF3{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Loss(ev, uncovered)
	}
}

func BenchmarkMineEndToEnd(b *testing.B) {
	d := benchDataset(b, "adult", 150)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := adc.Mine(d.Rel, adc.Options{
			Approx: "f1", Epsilon: 0.01, MaxPredicates: benchPreds,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Violation-checker benchmarks ----------------------------------------

// benchCheckSetup builds a dirtied Tax relation and its equality-heavy
// golden DCs (functional dependencies, keys, and the running-example
// constraint — all join on selective PLI clusters), the workload where
// the cluster-intersection path should beat the full pair scan.
func benchCheckSetup(b *testing.B, rows int) (*adc.Relation, []adc.DCSpec) {
	b.Helper()
	d := benchDataset(b, "tax", rows)
	rng := rand.New(rand.NewSource(benchSeed))
	dirty := adc.AddNoise(d.Rel, adc.SpreadNoise, 0.01, rng)
	return dirty, d.Golden
}

func benchViolations(b *testing.B, path string) {
	rel, specs := benchCheckSetup(b, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := adc.Violations(rel, specs, adc.CheckOptions{Path: path})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Violations == 0 {
			b.Fatal("no violations; benchmark is vacuous")
		}
	}
}

func BenchmarkViolationsScan(b *testing.B) { benchViolations(b, adc.ScanPath) }
func BenchmarkViolationsAuto(b *testing.B) { benchViolations(b, adc.AutoPath) }

func BenchmarkRepairGreedy(b *testing.B) {
	rel, specs := benchCheckSetup(b, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := adc.Repair(rel, specs, adc.CheckOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Remove) == 0 {
			b.Fatal("nothing repaired; benchmark is vacuous")
		}
	}
}

func BenchmarkMineSampled(b *testing.B) {
	d := benchDataset(b, "adult", 300)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := adc.Mine(d.Rel, adc.Options{
			Approx: "f1", Epsilon: 0.01, MaxPredicates: benchPreds,
			SampleFraction: 0.3, Alpha: 0.05, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Query-planner benchmarks --------------------------------------------

// benchPlanDC measures one DC under one execution path on the dirtied
// adult dataset against a warm checker — the serving steady state,
// where indexes and compiled plans amortize across requests. The
// BenchmarkPlan* family feeds BENCH_planner.json. Its four gated
// ratios are BenchmarkPlanMultiPredScan / BenchmarkPlanMultiPred, the
// planner-vs-scan speedup on a DC with no equality predicate to join
// on, which the planner runs as one all-rows group narrowed by its
// driver; BenchmarkPlanEqJoinScan / BenchmarkPlanEqJoin, the count
// phase's ≠ classes against enumeration; BenchmarkPlanRangeProbeScan /
// BenchmarkPlanRangeProbe, its order sweep against enumeration; and
// BenchmarkPlanPushdownScan / BenchmarkPlanPushdown, the eqjoin groups
// sorted by their driver against the scan, on a DC the count phase does
// not take.
func benchPlanDC(b *testing.B, path, dc string) {
	d := benchDataset(b, "adult", 2000)
	rng := rand.New(rand.NewSource(benchSeed))
	rel := adc.AddNoise(d.Rel, adc.SpreadNoise, 0.01, rng)
	specs, err := adc.ParseDCSpecs([]string{dc})
	if err != nil {
		b.Fatal(err)
	}
	checker := adc.NewChecker(rel)
	// Cap the reported pair list: these DCs violate on ~10⁵ of the 4M
	// ordered pairs, and materializing every one would measure pair-list
	// collection instead of plan execution (counts stay exact either way).
	opts := adc.CheckOptions{Path: path, MaxPairs: 64}
	if _, err := checker.Check(specs, opts); err != nil {
		b.Fatal(err) // warm: indexes built, plan compiled
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := checker.Check(specs, opts)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Results[0].Violations == 0 {
			b.Fatal("no violations; benchmark is vacuous")
		}
	}
}

// benchPlanMultiPredDC is the gate workload: order predicates only, so
// no equality join applies and the alternative is the full O(n²) scan,
// while the planner's histogram-exact selectivities find the cross-column
// driver (capital loss spans [0,2k), gain [0,5k), so P(loss > gain) ≈
// 0.2 — the generic "order ≈ 0.5" guess would have missed it) and
// probe only a fifth of the pairs, refuting with the residuals.
const benchPlanMultiPredDC = "not(t.CapitalLoss > t'.CapitalGain and t.Age <= t'.Age" +
	" and t.Fnlwgt >= t'.Fnlwgt and t.HoursPerWeek < t'.HoursPerWeek)"

// benchPlanEqJoinDC is a countable FD: the planner counts it per
// Education group, while the forced scan enumerates every pair. Their
// ratio gates the count phase in BENCH_planner.json, so a silent fall
// back to enumeration fails CI.
const benchPlanEqJoinDC = "not(t.Education = t'.Education and t.EducationNum != t'.EducationNum)"

func BenchmarkPlanEqJoin(b *testing.B)     { benchPlanDC(b, adc.AutoPath, benchPlanEqJoinDC) }
func BenchmarkPlanEqJoinScan(b *testing.B) { benchPlanDC(b, adc.ScanPath, benchPlanEqJoinDC) }

// BenchmarkPlanRangeProbe and BenchmarkPlanResidual time the count
// phase's order sweep, ungrouped and grouped by Education: at MaxPairs
// 64 both DCs are counted, and neither enumerates its candidates.
// BenchmarkPlanRangeProbeScan enumerates the first DC by the forced
// scan; its ratio to BenchmarkPlanRangeProbe gates the sweep in
// BENCH_planner.json.
const benchPlanRangeProbeDC = "not(t.EducationNum > t'.EducationNum and t.Age <= t'.Age)"

func BenchmarkPlanRangeProbe(b *testing.B)     { benchPlanDC(b, adc.AutoPath, benchPlanRangeProbeDC) }
func BenchmarkPlanRangeProbeScan(b *testing.B) { benchPlanDC(b, adc.ScanPath, benchPlanRangeProbeDC) }

func BenchmarkPlanResidual(b *testing.B) {
	benchPlanDC(b, adc.AutoPath, "not(t.Education = t'.Education and t.Age <= t'.Age and t.Fnlwgt >= t'.Fnlwgt)")
}

// benchPlanPushdownDC is not countable (an order driver plus a ≠
// residual), so the planner enumerates it: the Education groups, each
// sorted by Fnlwgt once, hand each row its partners under the driver by
// binary search, and the residuals refute only those.
const benchPlanPushdownDC = "not(t.Education = t'.Education and t.Age <= t'.Age" +
	" and t.Fnlwgt >= t'.Fnlwgt and t.HoursPerWeek != t'.HoursPerWeek)"

func BenchmarkPlanPushdown(b *testing.B)     { benchPlanDC(b, adc.AutoPath, benchPlanPushdownDC) }
func BenchmarkPlanPushdownScan(b *testing.B) { benchPlanDC(b, adc.ScanPath, benchPlanPushdownDC) }

func BenchmarkPlanMultiPred(b *testing.B)     { benchPlanDC(b, adc.AutoPath, benchPlanMultiPredDC) }
func BenchmarkPlanMultiPredScan(b *testing.B) { benchPlanDC(b, adc.ScanPath, benchPlanMultiPredDC) }
