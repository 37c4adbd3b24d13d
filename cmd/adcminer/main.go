// Command adcminer mines approximate denial constraints from a CSV
// file — the end-to-end ADCMiner pipeline of the paper (Figure 1).
//
// Usage:
//
//	adcminer -input data.csv -approx f1 -eps 0.01
//	adcminer -input data.csv -approx f3 -eps 0.1 -sample 0.3 -alpha 0.05
//	adcminer -input data.csv -save-snapshot data.adcs   # persist parsed columns + indexes
//	adcminer -load-snapshot data.adcs -eps 0.01         # re-mine without ingest
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"adc"
)

// main delegates to run so deferred cleanup — in particular flushing
// -cpuprofile/-memprofile — executes on every exit path, including
// errors (os.Exit would skip the defers and truncate the profiles).
func main() {
	os.Exit(run())
}

func run() int {
	var (
		input     = flag.String("input", "", "input CSV file (required unless -load-snapshot)")
		loadSnap  = flag.String("load-snapshot", "", "mine from a columnar snapshot instead of CSV (skips ingest and index builds)")
		saveSnap  = flag.String("save-snapshot", "", "after mining, save the relation and built indexes to this snapshot file")
		header    = flag.Bool("header", true, "first CSV record is the header")
		fn        = flag.String("approx", "f1", "approximation function: f1, f2, or f3")
		eps       = flag.Float64("eps", 0.01, "approximation threshold ε, 0 ≤ ε < 1 (0 mines valid DCs)")
		sampleF   = flag.Float64("sample", 1.0, "fraction of tuples to sample (Section 7)")
		alpha     = flag.Float64("alpha", 0, "confidence α for the sample-threshold correction, 0 ≤ α < 1 (f1 only; 0 disables it)")
		algorithm = flag.String("algorithm", "adcenum", "enumerator: adcenum, searchmc, or mmcs")
		workers   = flag.Int("workers", 0, "enumeration workers for adcenum (0 = auto, 1 = sequential)")
		evid      = flag.String("evidence", "auto", "evidence builder: auto (bit-level, cluster-tiled) or naive (per-pair oracle)")
		maxPreds  = flag.Int("max-preds", 0, "maximum predicates per DC (0 = unbounded)")
		seed      = flag.Int64("seed", 1, "sampling seed")
		ingestW   = flag.Int("ingest-workers", 0, "CSV ingest parse workers (0 = GOMAXPROCS)")
		chunkRows = flag.Int("chunk-rows", 0, "CSV ingest rows per parse chunk (0 = default)")
		top       = flag.Int("top", 0, "print only the first N DCs (0 = all)")
		ranked    = flag.Bool("rank", false, "order by FASTDC interestingness instead of length")
		stats     = flag.Bool("stats", true, "print run statistics")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *input == "" && *loadSnap == "" {
		fmt.Fprintln(os.Stderr, "adcminer: -input or -load-snapshot is required")
		flag.Usage()
		return 2
	}
	if *input != "" && *loadSnap != "" {
		fmt.Fprintln(os.Stderr, "adcminer: -input and -load-snapshot are mutually exclusive")
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "adcminer:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "adcminer:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "adcminer:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the retained-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "adcminer:", err)
			}
		}()
	}

	ingestStart := time.Now()
	var rel *adc.Relation
	var indexes *adc.IndexStore
	var err error
	if *loadSnap != "" {
		// Attach, not load: column data and any saved indexes alias the
		// mapped file and page in on first touch.
		rel, indexes, err = adc.AttachSnapshot(*loadSnap)
	} else {
		rel, err = adc.ReadCSVFileOptions(*input, *header,
			adc.IngestOptions{Workers: *ingestW, ChunkRows: *chunkRows})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "adcminer:", err)
		return 1
	}
	ingestTime := time.Since(ingestStart)
	if indexes == nil && *saveSnap != "" {
		// Route the run's index builds through a store we can persist,
		// so the snapshot captures them warm.
		indexes = adc.NewChecker(rel).Indexes()
	}
	res, err := adc.Mine(rel, adc.Options{
		Approx:         *fn,
		Epsilon:        *eps,
		SampleFraction: *sampleF,
		Alpha:          *alpha,
		Algorithm:      *algorithm,
		Workers:        *workers,
		Evidence:       *evid,
		MaxPredicates:  *maxPreds,
		Seed:           *seed,
		Indexes:        indexes,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "adcminer:", err)
		return 1
	}
	if *saveSnap != "" {
		// Persist the relation plus whatever indexes the run built, so
		// the next invocation starts warm via -load-snapshot.
		if err := adc.SaveSnapshot(*saveSnap, rel, indexes); err != nil {
			fmt.Fprintln(os.Stderr, "adcminer:", err)
			return 1
		}
	}

	dcs := res.DCs
	if *ranked {
		scores := adc.RankDCs(res.Evidence, dcs)
		for i, s := range scores {
			dcs[i] = s.DC
		}
	} else {
		adc.SortDCs(dcs)
	}
	limit := len(dcs)
	if *top > 0 && *top < limit {
		limit = *top
	}
	for _, dc := range dcs[:limit] {
		fmt.Println(dc)
	}
	if *stats {
		fmt.Fprintf(os.Stderr,
			"mined %d minimal ADCs (%s, eps=%g) from %d/%d rows in %v\n"+
				"  predicate space %d, distinct evidence sets %d\n"+
				"  ingest %v | space %v | sample %v | evidence %v | enumeration %v (%d calls)\n",
			len(dcs), *fn, *eps, res.SampleRows, rel.NumRows(), res.Total.Round(ms),
			res.Space.Size(), res.Evidence.Distinct(),
			ingestTime.Round(ms), res.PredicateSpaceTime.Round(ms), res.SampleTime.Round(ms),
			res.EvidenceTime.Round(ms), res.EnumTime.Round(ms), res.EnumCalls)
	}
	return 0
}

const ms = time.Millisecond
