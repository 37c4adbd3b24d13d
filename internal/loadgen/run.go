package loadgen

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adc/internal/hist"
)

// pollInterval paces the mine-job polling loop. Polls are counted in
// the report but excluded from throughput: they are bookkeeping, not
// offered load.
const pollInterval = 25 * time.Millisecond

// baseDataset is one pre-registered dataset the measured traffic runs
// against, plus the shared verifier state for it: hw is the high-water
// row count any client has observed in a response (row counts are
// monotone — appends only — so a response below it proves a lost
// append or stale read), appended accumulates the rows successfully
// appended by all clients for the final exact count check.
type baseDataset struct {
	id       string
	initial  int
	dcs      []string
	colTypes []string

	hw       atomic.Int64
	appended atomic.Int64
	// appendTransportErrs counts appends whose response was lost in
	// transit: the server may or may not have applied them, so the
	// final check can only assert the missing direction, not exact
	// equality.
	appendTransportErrs atomic.Int64
}

// observeRows runs the monotonicity leg of the verifier: rows was
// reported by the server in a response to a request *issued after*
// hwBefore was read, so monotone row counts require rows >= hwBefore.
func (d *baseDataset) observeRows(rows int, hwBefore int64) bool {
	ok := int64(rows) >= hwBefore
	for {
		cur := d.hw.Load()
		if int64(rows) <= cur {
			return ok
		}
		if d.hw.CompareAndSwap(cur, int64(rows)) {
			return ok
		}
	}
}

// clientStats is one client's private tally; the runner merges them
// after the join, so the hot path takes no locks and the merged result
// does not depend on scheduling.
type clientStats struct {
	hist     [numOps]*hist.Histogram // measured (post-warmup) latencies
	attempts [numOps]int64           // every issued request, warmup included
	errors   [numOps]int64           // measured-window failures
	warmup   int64                   // ops discarded as warmup
	polls    int64
	mineJobF int64
	consViol int64
	statuses map[int]int64
	errKinds map[string]int64
}

func newClientStats() *clientStats {
	st := &clientStats{
		statuses: make(map[int]int64),
		errKinds: make(map[string]int64),
	}
	for k := range st.hist {
		st.hist[k] = hist.New()
	}
	return st
}

func (st *clientStats) classify(code int, err error) {
	if code > 0 {
		st.statuses[code]++
	}
	if err == nil {
		return
	}
	switch e := err.(type) {
	case *errStatus:
		if e.code >= 500 {
			st.errKinds["http_5xx"]++
		} else {
			st.errKinds["http_4xx"]++
		}
	default:
		if code > 0 {
			st.errKinds["decode"]++
		} else {
			st.errKinds["transport"]++
		}
	}
}

// runState is the shared fixture of one run.
type runState struct {
	spec  Spec
	api   *api
	base  []*baseDataset
	start time.Time
	wEnd  time.Time // warmup end
	dead  time.Time // zero: requests-bounded only
}

// Run executes the load spec and returns its report. Setup (base
// dataset registration) and teardown requests are not part of the
// measured traffic.
func Run(spec Spec) (*Report, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	a := newAPI(spec.BaseURL, spec.Concurrency, spec.Timeout)
	defer a.close()

	// Base datasets: generated server-side from seeds derived off the
	// run seed, so the fixture is as deterministic as the traffic.
	rs := &runState{spec: spec, api: a}
	for i := 0; i < spec.Datasets; i++ {
		info, _, err := a.register(spec.Dataset, spec.Rows, clientSeed(spec.Seed, i, 2))
		if err != nil {
			return nil, fmt.Errorf("loadgen: register base dataset %d: %w", i, err)
		}
		ds := &baseDataset{id: info.ID, initial: info.Rows, dcs: info.GoldenDCs}
		for _, c := range info.Columns {
			ds.colTypes = append(ds.colTypes, c.Type)
		}
		if len(ds.dcs) == 0 {
			// Non-generated datasets carry no golden DCs; validate
			// against a tautologically clean one so the op still
			// exercises the full check path.
			c := info.Columns[0].Name
			ds.dcs = []string{fmt.Sprintf("not(t.%s = t'.%s and t.%s != t'.%s)", c, c, c, c)}
		}
		ds.hw.Store(int64(info.Rows))
		rs.base = append(rs.base, ds)
	}
	spec.logf("registered %d base dataset(s) (%s x%d rows)", len(rs.base), spec.Dataset, spec.Rows)

	// Soak sampler: reads /metrics on a fixed cadence while the
	// clients run.
	var soak *soakSampler
	if spec.Soak {
		soak = startSoak(a, spec.SoakInterval)
	}

	rs.start = time.Now()
	rs.wEnd = rs.start.Add(spec.Warmup)
	if spec.Duration > 0 {
		rs.dead = rs.start.Add(spec.Duration)
	}

	stats := make([]*clientStats, spec.Concurrency)
	created := make([][]string, spec.Concurrency)
	var wg sync.WaitGroup
	for i := 0; i < spec.Concurrency; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			stats[id], created[id] = rs.runClient(id)
		}(i)
	}
	wg.Wait()
	measureEnd := time.Now()
	if soak != nil {
		soak.stop()
	}

	rep := rs.buildReport(stats, measureEnd, soak)

	// Final verifier leg: every 2xx append must be visible in the
	// dataset's final row count. Run after the join so there is no
	// in-flight append to race with.
	for _, ds := range rs.base {
		info, _, err := a.info(ds.id)
		if err != nil {
			rep.ConsistencyViolations++
			rep.bumpErr("dataset_missing")
			continue
		}
		expected := int64(ds.initial) + ds.appended.Load()
		if int64(info.Rows) < expected {
			rep.LostAppends += expected - int64(info.Rows)
			rep.bumpErr("lost_append")
		} else if int64(info.Rows) > expected && ds.appendTransportErrs.Load() == 0 {
			// Rows nobody acked appending; only decidable when every
			// append got a response.
			rep.ConsistencyViolations++
			rep.bumpErr("phantom_rows")
		}
	}

	if !spec.KeepDatasets {
		n := 0
		for _, ids := range created {
			for _, id := range ids {
				a.deleteDataset(id) //nolint:errcheck // best-effort teardown
				n++
			}
		}
		for _, ds := range rs.base {
			a.deleteDataset(ds.id) //nolint:errcheck // best-effort teardown
			n++
		}
		spec.logf("deleted %d dataset(s)", n)
	}
	return rep, nil
}

// runClient drives one client's deterministic op stream until the
// deadline or its request budget is exhausted. It returns its private
// stats and the dataset ids its register ops created.
func (rs *runState) runClient(id int) (*clientStats, []string) {
	spec := rs.spec
	st := newClientStats()
	picker := newOpPicker(spec.Seed, id, spec.Mix)
	// Payload values draw from their own stream: the op-kind sequence
	// stays fixed for a seed even if payload shapes change.
	valRNG := rand.New(rand.NewSource(clientSeed(spec.Seed, id, 3)))
	own := rs.base[id%len(rs.base)]

	budget := -1 // unlimited
	if spec.Requests > 0 {
		budget = spec.Requests / spec.Concurrency
		if id < spec.Requests%spec.Concurrency {
			budget++
		}
	}

	// Open-loop pacing: aggregate TargetQPS split across clients with
	// per-client phase stagger, arrivals scheduled on the absolute
	// clock. Latency measures from the scheduled arrival, so server
	// stalls surface as queueing delay rather than vanishing into
	// coordinated omission.
	var period, phase time.Duration
	if spec.TargetQPS > 0 {
		period = time.Duration(float64(spec.Concurrency) / spec.TargetQPS * float64(time.Second))
		phase = period * time.Duration(id) / time.Duration(spec.Concurrency)
	}

	var createdIDs []string
	for k := 0; budget < 0 || k < budget; k++ {
		opStart := time.Now()
		if period > 0 {
			arrival := rs.start.Add(phase + time.Duration(k)*period)
			if !rs.dead.IsZero() && arrival.After(rs.dead) {
				break
			}
			if d := time.Until(arrival); d > 0 {
				time.Sleep(d)
			}
			opStart = arrival
		} else if !rs.dead.IsZero() && opStart.After(rs.dead) {
			break
		}

		kind := picker.next()
		st.attempts[kind]++
		code, err := rs.execute(kind, own, valRNG, st, &createdIDs)
		st.classify(code, err)
		if opStart.Before(rs.wEnd) {
			st.warmup++
			continue
		}
		st.hist[kind].Observe(time.Since(opStart))
		if err != nil {
			st.errors[kind]++
		}
	}
	return st, createdIDs
}

// execute issues one op. The returned status code is 0 when no
// response arrived.
func (rs *runState) execute(kind int, own *baseDataset, valRNG *rand.Rand, st *clientStats, createdIDs *[]string) (int, error) {
	spec := rs.spec
	switch kind {
	case OpValidate:
		ds := rs.base[valRNG.Intn(len(rs.base))]
		hwBefore := ds.hw.Load()
		none := 0
		resp, code, err := rs.api.validate(ds.id, validateReq{DCs: ds.dcs, Epsilon: spec.Epsilon, MaxPairs: &none})
		if err != nil {
			return code, err
		}
		if !ds.observeRows(resp.Rows, hwBefore) {
			st.consViol++
			st.errKinds["row_regression"]++
		}
		return code, nil

	case OpAppend:
		return rs.appendRows(own, valRNG, st)

	case OpRegister:
		info, code, err := rs.api.register(spec.Dataset, spec.Rows, valRNG.Int63())
		if err != nil {
			return code, err
		}
		*createdIDs = append(*createdIDs, info.ID)
		return code, nil

	case OpAppendMine:
		// Append-then-mine against the client's own dataset: one op, one
		// histogram, covering the warm re-mine path end to end — the
		// server keeps its mining cache across the append and maintains
		// evidence incrementally, so this latency is the user-visible
		// cost of continuous mining on a growing dataset.
		code, err := rs.appendRows(own, valRNG, st)
		if err != nil {
			return code, err
		}
		return rs.mineAndWait(own, valRNG, st)

	default: // OpMine
		ds := rs.base[valRNG.Intn(len(rs.base))]
		return rs.mineAndWait(ds, valRNG, st)
	}
}

// appendRows issues one append of 1-3 random rows to ds, running the
// monotonicity leg of the verifier on the response.
func (rs *runState) appendRows(ds *baseDataset, valRNG *rand.Rand, st *clientStats) (int, error) {
	n := 1 + valRNG.Intn(3)
	rows := make([][]string, n)
	for r := range rows {
		rows[r] = randomRow(ds.colTypes, valRNG)
	}
	hwBefore := ds.hw.Load()
	resp, code, err := rs.api.appendRows(ds.id, rows)
	if err != nil {
		if code == 0 {
			ds.appendTransportErrs.Add(1)
		}
		return code, err
	}
	ds.appended.Add(int64(n))
	// The response reports rows after this append: at least the
	// pre-issue high water plus what we just added.
	if !ds.observeRows(resp.Rows, hwBefore+int64(n)) {
		st.consViol++
		st.errKinds["append_not_reflected"]++
	}
	return code, nil
}

// mineAndWait submits a mine job on ds and polls it to a terminal
// state, so op latency covers the analytical work, not just the
// enqueue.
func (rs *runState) mineAndWait(ds *baseDataset, valRNG *rand.Rand, st *clientStats) (int, error) {
	spec := rs.spec
	jobID, code, err := rs.api.mineSubmit(ds.id, mineReq{
		Epsilon:       spec.Epsilon,
		MaxPredicates: spec.MaxPredicates,
		Seed:          valRNG.Int63(),
	})
	if err != nil {
		return code, err
	}
	waitDeadline := time.Now().Add(spec.Timeout)
	for {
		time.Sleep(pollInterval)
		st.polls++
		job, jcode, jerr := rs.api.jobGet(jobID)
		if jerr != nil {
			return jcode, jerr
		}
		switch job.State {
		case "done":
			return code, nil
		case "failed":
			st.mineJobF++
			st.errKinds["mine_job"]++
			return code, fmt.Errorf("mine job %s failed: %s", jobID, job.Error)
		}
		if time.Now().After(waitDeadline) {
			st.errKinds["mine_timeout"]++
			return code, fmt.Errorf("mine job %s still running after %s", jobID, spec.Timeout)
		}
	}
}

// randomRow generates one appendable row matching the dataset's column
// types (the server parses appended values against them).
func randomRow(colTypes []string, rng *rand.Rand) []string {
	row := make([]string, len(colTypes))
	for k, t := range colTypes {
		switch t {
		case "int":
			row[k] = strconv.Itoa(rng.Intn(1_000_000))
		case "float":
			row[k] = strconv.FormatFloat(float64(rng.Intn(1_000_000))/100, 'f', 2, 64)
		default:
			row[k] = "ld-" + strconv.FormatInt(int64(rng.Intn(50_000)), 36)
		}
	}
	return row
}

func (r *Report) bumpErr(kind string) {
	if r.Errors == nil {
		r.Errors = make(map[string]int64)
	}
	r.Errors[kind]++
}

// buildReport merges the per-client tallies into the final report.
func (rs *runState) buildReport(stats []*clientStats, measureEnd time.Time, soak *soakSampler) *Report {
	spec := rs.spec
	mode := "closed"
	if spec.TargetQPS > 0 {
		mode = fmt.Sprintf("open@%g", spec.TargetQPS)
	}
	measured := measureEnd.Sub(rs.wEnd)
	if measured <= 0 {
		// The whole run fit inside the warmup window; fall back to the
		// full wall so throughput stays finite (counts are then zero).
		measured = measureEnd.Sub(rs.start)
	}

	rep := &Report{
		Concurrency: spec.Concurrency,
		Mix:         spec.Mix.String(),
		Seed:        spec.Seed,
		Mode:        mode,
		Dataset:     spec.Dataset,
		Rows:        spec.Rows,
		Datasets:    spec.Datasets,
		WarmupS:     spec.Warmup.Seconds(),
		DurationS:   measured.Seconds(),
		Ops:         make(map[string]OpStats, numOps),
		Statuses:    make(map[string]int64),
	}

	merged := [numOps]*hist.Histogram{}
	var attempts, errors [numOps]int64
	for k := range merged {
		merged[k] = hist.New()
	}
	for _, st := range stats {
		for k := range merged {
			merged[k].Merge(st.hist[k])
			attempts[k] += st.attempts[k]
			errors[k] += st.errors[k]
		}
		rep.WarmupSkipped += st.warmup
		rep.Polls += st.polls
		rep.MineJobFailures += st.mineJobF
		rep.ConsistencyViolations += st.consViol
		for code, n := range st.statuses {
			rep.Statuses[strconv.Itoa(code)] += n
			if code < 200 || code > 299 {
				rep.Non2xx += n
			}
		}
		for kind, n := range st.errKinds {
			if rep.Errors == nil {
				rep.Errors = make(map[string]int64)
			}
			rep.Errors[kind] += n
			if kind == "transport" {
				rep.TransportErrors += n
			}
		}
	}

	for k, h := range merged {
		if attempts[k] == 0 {
			continue
		}
		rep.Ops[OpNames[k]] = OpStats{
			Count:    h.Count(),
			Attempts: attempts[k],
			Errors:   errors[k],
			QPS:      float64(h.Count()) / measured.Seconds(),
			MeanUS:   us(h.Mean()),
			P50US:    us(h.Quantile(0.50)),
			P95US:    us(h.Quantile(0.95)),
			P99US:    us(h.Quantile(0.99)),
			MaxUS:    us(h.Max()),
		}
		rep.TotalRequests += h.Count()
	}
	rep.ThroughputQPS = float64(rep.TotalRequests) / measured.Seconds()
	rep.P99ValidateUS = rep.Ops["validate"].P99US

	if soak != nil {
		sk := soak.report()
		sk.ClientMinusServerP99 = rep.P99ValidateUS - sk.ServerValidateP99US
		rep.Soak = &sk
	}
	return rep
}
