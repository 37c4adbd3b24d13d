package main

import (
	"fmt"
	"math/rand"
	"time"

	"adc/internal/server"
)

// validateMaxPairs is the pairs a validate returns per DC: enough for a
// user to look at, while the counts stay exact.
const validateMaxPairs = 10

// validateTail is the tail percentile of validate latency that run.sh
// gates. A window holds a few hundred requests, enough for p90 with ten
// samples beyond it; p99 would need a thousand.
const validateTail = 0.9

// poolDC is one golden DC of a validate pool, the dataset it checks,
// and its validate request, encoded once.
type poolDC struct {
	ds   int
	dc   string
	body []byte
}

// buildPool lists every golden DC of the inputs: for tax and hospital,
// sixteen DCs costing from well under a millisecond to tens of
// milliseconds, in equality-join, cascade and scan shapes.
func buildPool(ins []*input) []poolDC {
	var pool []poolDC
	for k, in := range ins {
		for _, dc := range in.dcs {
			pool = append(pool, poolDC{ds: k, dc: dc, body: mustJSON(validateReq{DCs: []string{dc}, MaxPairs: validateMaxPairs})})
		}
	}
	return pool
}

// oracle counts each pool DC's violations on the ground-truth
// relations.
func oracle(ins []*input, pool []poolDC) ([]int64, error) {
	want := make([]int64, len(pool))
	for k, p := range pool {
		n, err := countViolations(ins[p.ds].rel, p.dc)
		if err != nil {
			return nil, err
		}
		want[k] = n
	}
	return want, nil
}

// served is a dcserved with the workload's datasets registered.
type served struct {
	api  *api
	ids  []string
	rows []int
}

// setUp starts a server, registers the inputs as text/csv and validates
// every pool DC once, so indexes and plans are built before timing.
func setUp(cfg server.Config, ins []*input, pool []poolDC) (*served, time.Duration, error) {
	start := time.Now()
	a, err := newAPI(cfg)
	if err != nil {
		return nil, 0, err
	}
	s := &served{api: a}
	for _, in := range ins {
		ds, _, err := a.register(nil, in)
		if err != nil {
			return nil, 0, err
		}
		s.ids = append(s.ids, ds.ID)
		s.rows = append(s.rows, ds.Rows)
	}
	for _, p := range pool {
		if _, _, err := a.validate(nil, s.ids[p.ds], p.body); err != nil {
			return nil, 0, err
		}
	}
	return s, time.Since(start), nil
}

// roundDesc is what the operation of a validate client is.
const roundDesc = "round of 16 validate requests, one per golden DC, client side"

// latencies are one validate client's times in ms: whole rounds,
// untraced and traced, and the requests of the untraced rounds.
type latencies struct {
	rounds, tracedRounds, requests []float64
}

// validateLoop is one closed-loop validate client. Its operation is a
// round: every DC of the pool once, in a seeded permutation, one
// request after another. Every round does the same work, so its time
// does not move with how often a draw picked a cheap or a dear DC, as a
// single request's percentile does: with DCs costing 0.3 to 100 ms, the
// request median falls in a gap between two DCs and jumps across it.
// The client starts rounds until the deadline. Before each request it
// asks expect for the check of its response, so the check can capture
// what was known when the request went out.
func validateLoop(e *env, s *served, pool []poolDC, rng *rand.Rand, deadline time.Time, o *outcome,
	expect func(k int) func(validateResp) error) latencies {
	var l latencies
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		// A traced run traces every other round, so traced and untraced
		// rounds check the same DCs.
		tr := e.tracerFor(round)
		var reqs []float64
		failed := false
		start := time.Now()
		for _, k := range rng.Perm(len(pool)) {
			p := pool[k]
			o.attempt(1)
			verify := expect(k)
			root := tr.root("validate.request")
			t0 := time.Now()
			resp, _, err := s.api.validate(root, s.ids[p.ds], p.body)
			d := time.Since(t0)
			root.end(nil)
			if err == nil {
				err = verify(resp)
			}
			if err != nil {
				o.fail("validate %s: %v", p.dc, err)
				failed = true
				continue
			}
			reqs = append(reqs, ms(d))
		}
		if failed {
			continue
		}
		d := ms(time.Since(start))
		if tr != nil {
			l.tracedRounds = append(l.tracedRounds, d)
		} else {
			l.rounds = append(l.rounds, d)
			l.requests = append(l.requests, reqs...)
		}
	}
	return l
}

// runValidate is the read path alone: one closed-loop client validates
// golden DCs against two in-memory sessions, tax and hospital. One
// client is enough to keep both vCPUs busy, since every check already
// runs GOMAXPROCS workers; a second client only made the checks compete
// for them, which moved a run's round time by up to 1.5x.
func runValidate(e *env) (*outcome, error) {
	ins, err := genInputs(e.seed, e.rows, "tax", "hospital")
	if err != nil {
		return nil, err
	}
	pool := buildPool(ins)
	o := &outcome{opDesc: roundDesc, ins: ins, probeMine: probeMineOpts()}
	want, err := oracle(ins, pool)
	if err != nil {
		return nil, err
	}
	var s *served
	for k := 0; k < setupRepeats; k++ {
		var d time.Duration
		if s, d, err = setUp(server.Config{}, ins, pool); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, d.Seconds())
	}

	expect := func(k int) func(validateResp) error {
		p := pool[k]
		return func(resp validateResp) error {
			if resp.Rows != s.rows[p.ds] || len(resp.DCs) != 1 || resp.DCs[0].Violations != want[k] {
				return fmt.Errorf("got rows %d and verdicts %v, want rows %d and %d violations",
					resp.Rows, resp.DCs, s.rows[p.ds], want[k])
			}
			return nil
		}
	}
	rng := rand.New(rand.NewSource(subSeed(e.seed, 100)))
	start := time.Now()
	l := validateLoop(e, s, pool, rng, start.Add(e.window), o, expect)
	o.elapsed = time.Since(start)
	o.lat, o.tracedLat = l.rounds, l.tracedRounds
	if e.tr == nil {
		g, err := requestGate(l.requests)
		if err != nil {
			return nil, err
		}
		o.gates = []row{g}
	}
	return o, nil
}

// requestGate is the tail of single validate requests, which run.sh
// gates next to the round time.
func requestGate(requests []float64) (row, error) {
	tail, err := percentile(requests, validateTail)
	if err != nil {
		return row{}, fmt.Errorf("validate tail: %w", err)
	}
	return row{"validate.p90_ms", tail, "ms", fmt.Sprintf("validate request, p90 of %d", len(requests))}, nil
}
