package main

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"adc"
)

// The mine workload's job: the paper's pipeline on adult through
// sampling (Section 7), at the settings a user would pick for a 20k-row
// table: f1, ε = 0.01, a 3% sample and DCs of at most two predicates.
const (
	mineEpsilon  = 0.01
	mineSample   = 0.03
	mineMaxPreds = 2
)

// runMine is a closed loop of one client. Each job reads the adult CSV
// and mines it; every job does identical work, so their times differ
// only by noise.
func runMine(e *env) (*outcome, error) {
	ins, err := genInputs(e.seed, e.rows, "adult")
	if err != nil {
		return nil, err
	}
	in := ins[0]
	opts := adc.Options{Approx: "f1", Epsilon: mineEpsilon, SampleFraction: mineSample, MaxPredicates: mineMaxPreds, Seed: sampleSeed}
	o := &outcome{opDesc: "mine job (read CSV, mine, sort)", ins: ins, probeMine: opts}

	// Set-up warms ingest and every mining stage once, at one predicate
	// per DC so enumeration stays short.
	warm := opts
	warm.MaxPredicates = 1
	for k := 0; k < setupRepeats; k++ {
		start := time.Now()
		rel, err := adc.ReadCSV(bytes.NewReader(in.csv), in.name, true)
		if err != nil {
			return nil, err
		}
		if _, err := adc.Mine(rel, warm); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
	}

	var first []adc.DC
	var firstKey string
	var seen bool
	var enumShare []float64
	start := time.Now()
	for jobs := 0; jobs == 0 || time.Since(start) < e.window; jobs++ {
		o.attempt(1)
		tr := e.tracerFor(jobs)
		// Each job starts on a collected heap, as a fresh adcminer process
		// would, instead of paying for the last job's garbage.
		runtime.GC()
		t0 := time.Now()
		dcs, res, err := mineJob(tr, in, opts)
		if err != nil {
			o.fail("mine job: %v", err)
			continue
		}
		d := time.Since(t0)
		o.addLat(tr != nil, d)
		enumShare = append(enumShare, float64(res.EnumTime)/float64(d))
		key := dcKey(dcs)
		switch {
		case !seen:
			first, firstKey, seen = dcs, key, true
		case key != firstKey:
			o.fail("mine job %d returned %d DCs, the first returned %d: the sets differ", jobs+1, len(dcs), len(first))
		}
	}
	o.elapsed = time.Since(start)

	// Every mined DC must hold on the sample it was mined from, checked
	// by the violation engine, a different code path from evidence.
	o.attempt(1)
	sample := in.rel.Sample(mineSample, rand.New(rand.NewSource(sampleSeed)))
	vals, err := adc.Validate(sample, adc.DCSpecs(first), "f1", mineEpsilon, adc.CheckOptions{})
	switch {
	case err != nil:
		o.fail("validate mined DCs: %v", err)
	case len(first) == 0:
		o.fail("the mine found no DCs")
	default:
		for _, v := range vals {
			if !v.OK {
				o.fail("mined DC %s has loss %v > %v on its sample", v.Spec, v.Loss, mineEpsilon)
			}
		}
	}
	o.notes = append(o.notes,
		row{"mine.dcs", float64(len(first)), "count", "DCs per job"},
		row{"mine.enum_share", median(enumShare), "ratio", "enumeration share of a job, median"})
	return o, nil
}

// mineJob reads the CSV, mines it and sorts the DCs, recording a span
// per stage.
func mineJob(tr *tracer, in *input, opts adc.Options) ([]adc.DC, *adc.Result, error) {
	root := tr.root("mine.job")
	defer root.end(nil)
	sp := root.child("dataset.ingest")
	rel, err := adc.ReadCSV(bytes.NewReader(in.csv), in.name, true)
	sp.end(nil)
	if err != nil {
		return nil, nil, err
	}
	sp = root.child("adc.mine")
	start := time.Now()
	res, err := adc.Mine(rel, opts)
	sp.end(nil)
	if err != nil {
		return nil, nil, err
	}
	n := float64(res.SampleRows)
	distinct := float64(res.Evidence.Distinct())
	addStages(sp, start, []stage{
		{"sample", res.SampleTime, map[string]float64{"rows": n}},
		{"predicate.space", res.PredicateSpaceTime, map[string]float64{"predicates": float64(res.Space.Size())}},
		{"evidence", res.EvidenceTime, map[string]float64{"distinct": distinct, "compression": distinct / max(n*(n-1), 1)}},
		{"hitset", res.EnumTime, map[string]float64{"calls": float64(res.EnumCalls), "loss_evals": float64(res.LossEvals), "dcs": float64(len(res.DCs))}},
	})
	sp = root.child("adc.sort")
	adc.SortDCs(res.DCs)
	sp.end(nil)
	return res.DCs, res, nil
}

// stage is one ADCMiner stage as the program timed and counted it.
type stage struct {
	name     string
	dur      time.Duration
	counters map[string]float64
}

// addStages records the stages under parent, laid end to end from
// start in the order Mine runs them. Their durations are the ones the
// program measured itself.
func addStages(parent *span, start time.Time, stages []stage) {
	for _, s := range stages {
		parent.add(s.name, start, s.dur, s.counters)
		start = start.Add(s.dur)
	}
}

// dcKey is the canonical text of a sorted DC set.
func dcKey(dcs []adc.DC) string {
	var b strings.Builder
	for _, dc := range dcs {
		b.WriteString(dc.Canonical())
		b.WriteByte('\n')
	}
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
