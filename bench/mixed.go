package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"adc/internal/server"
)

// The mixed workload's schedule. Appends arrive at a fixed rate, so
// both sides of a comparison append the same rows: a faster append
// path must not grow the data and so slow the validates.
const (
	appendEvery = 40 * time.Millisecond
	appendSize  = 4
)

// runMixed is reads under writes: client 0 validates in a closed loop
// while client 1 appends to the two durable sessions in turn on a fixed
// schedule. It submits no mine jobs: with one always in flight, a run's
// median round moved by 14-20% (quartile spread over 4-8 seeds) against
// 7-13% without, too much for the benchmark's bounds.
func runMixed(e *env) (*outcome, error) {
	ins, err := genInputs(e.seed, e.rows, "tax", "hospital")
	if err != nil {
		return nil, err
	}
	pool := buildPool(ins)
	o := &outcome{opDesc: roundDesc + ", under appends", ins: ins, probeMine: probeMineOpts()}

	// The append stream: batch k goes to dataset k%2.
	nAppends := int(e.window/appendEvery) + 1
	rng := rand.New(rand.NewSource(subSeed(e.seed, 200)))
	stream := make([][][]string, nAppends)
	for k := range stream {
		stream[k] = batches(ins[k%2].rel, 1, appendSize, rng)[0]
	}

	var s *served
	for k := 0; k < setupRepeats; k++ {
		dir, err := os.MkdirTemp(e.tmp, "mixed-")
		if err != nil {
			return nil, err
		}
		var d time.Duration
		if s, d, err = setUp(server.Config{DataDir: dir}, ins, pool); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, d.Seconds())
	}

	// hw is the row count of each dataset that acked appends guarantee:
	// a response that shows fewer rows lost an append or read stale data.
	hw := make([]atomic.Int64, len(ins))
	for k := range hw {
		hw[k].Store(int64(s.rows[k]))
	}
	expect := func(k int) func(validateResp) error {
		ds := pool[k].ds
		floor := hw[ds].Load()
		return func(resp validateResp) error {
			if int64(resp.Rows) < floor {
				return fmt.Errorf("rows went back from %d to %d", floor, resp.Rows)
			}
			return nil
		}
	}

	start := time.Now()
	deadline := start.Add(e.window)
	var val latencies
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(subSeed(e.seed, 100)))
		val = validateLoop(e, s, pool, rng, deadline, o, expect)
	}()

	// Client 1, this goroutine. Its requests are always traced in a
	// traced run; only client 0's alternate.
	var (
		appendLat, lateness []float64
		acked               = make([][][]string, len(ins))
	)
	for k := 0; k < nAppends; k++ {
		due := start.Add(time.Duration(k) * appendEvery)
		if due.After(deadline) {
			break
		}
		time.Sleep(time.Until(due))
		lateness = append(lateness, ms(time.Since(due)))

		ds := k % len(ins)
		o.attempt(1)
		root := e.tr.rootAt("append.request", due)
		resp, _, err := s.api.appendRows(root, s.ids[ds], stream[k])
		root.end(nil)
		want := s.rows[ds] + len(acked[ds]) + appendSize
		switch {
		case err != nil:
			o.fail("append: %v", err)
		case resp.Rows != want:
			o.fail("append to %s answered %d rows, want %d", s.ids[ds], resp.Rows, want)
		default:
			appendLat = append(appendLat, ms(time.Since(due)))
			acked[ds] = append(acked[ds], stream[k]...)
			hw[ds].Store(int64(resp.Rows))
		}
	}
	wg.Wait()
	o.elapsed = time.Since(start)
	o.lat, o.tracedLat = val.rounds, val.tracedRounds

	// Final state, checked from the client side: every acked append is
	// there, and the verdicts equal the oracle on a replica the client
	// built by appending the acked rows to its own copy.
	for ds, in := range ins {
		o.attempt(2)
		info, err := s.api.info(nil, s.ids[ds])
		if want := s.rows[ds] + len(acked[ds]); err != nil || info.Rows != want {
			o.fail("final %s: rows %d (%v), want %d", in.name, info.Rows, err, want)
		}
		if err := checkReplica(s, ds, in, acked[ds]); err != nil {
			o.fail("final %s verdicts: %v", in.name, err)
		}
	}

	if e.tr == nil {
		g, err := requestGate(val.requests)
		if err != nil {
			return nil, err
		}
		o.gates = []row{
			g,
			{"append.p50_ms", median(appendLat), "ms", fmt.Sprintf("append, from its due time, median of %d", len(appendLat))},
			tailRow("append.tail_ms", appendLat, "append, from its due time"),
		}
		o.notes = []row{tailRow("gen.lateness_tail_ms", lateness, "open-loop writer's lag behind its schedule")}
	}
	return o, nil
}

// checkReplica validates every DC of the dataset on the server and
// compares the counts with the oracle on the client's replica.
func checkReplica(s *served, ds int, in *input, acked [][]string) error {
	replica, err := in.rel.AppendRows(acked)
	if err != nil {
		return err
	}
	resp, _, err := s.api.validate(nil, s.ids[ds], mustJSON(validateReq{DCs: in.dcs}))
	if err != nil {
		return err
	}
	if len(resp.DCs) != len(in.dcs) {
		return fmt.Errorf("%d verdicts for %d DCs", len(resp.DCs), len(in.dcs))
	}
	for k, dc := range in.dcs {
		want, err := countViolations(replica, dc)
		if err != nil {
			return err
		}
		if got := resp.DCs[k].Violations; got != want {
			return fmt.Errorf("%s: server %d violations, replica oracle %d", dc, got, want)
		}
	}
	return nil
}

// tailRow reports the highest of p99, p95 and p90 that the samples
// support. The open-loop writer's sample count is fixed by the window
// (500 appends in 20 s, so p95), so the percentile is the same from
// run to run.
func tailRow(name string, xs []float64, desc string) row {
	for _, q := range []float64{0.99, 0.95, 0.9} {
		if v, err := percentile(xs, q); err == nil {
			return row{name, v, "ms", fmt.Sprintf("%s, p%g of %d", desc, q*100, len(xs))}
		}
	}
	return row{name, median(xs), "ms", fmt.Sprintf("%s, median of %d (too few for a tail)", desc, len(xs))}
}
