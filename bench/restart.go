package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"adc/internal/server"
)

// restartBatches is the appends per dataset per cycle. It stays below
// the server's default SnapshotEvery (64), so no append snapshots and
// every restart must replay the write-ahead log.
const restartBatches = 32

// restartDS is one dataset of a restart cycle: its id and row count on
// the current server, and the validate request of its probe DC, the
// dataset's first golden DC.
type restartDS struct {
	id    string
	rows  int
	probe []byte
}

// runRestart covers the cold paths the steady-state workloads never
// touch. Each cycle registers four datasets on a durable server,
// appends to each, restarts the server on the same directory, checks
// one DC per dataset, and deletes them. The operation timed is the
// restore: the new server's start plus the first validate of each
// dataset (snapshot attach, log replay, first check).
func runRestart(e *env) (*outcome, error) {
	ins, err := genInputs(e.seed, e.rows, "tax", "hospital", "adult", "stock")
	if err != nil {
		return nil, err
	}
	o := &outcome{opDesc: "restore: server start plus first validate of 4 datasets", ins: ins, probeMine: probeMineOpts()}
	rng := rand.New(rand.NewSource(subSeed(e.seed, 300)))
	appends := make([][][][]string, len(ins))
	for k, in := range ins {
		appends[k] = batches(in.rel, restartBatches, appendSize, rng)
	}
	dir, err := os.MkdirTemp(e.tmp, "restart-")
	if err != nil {
		return nil, err
	}

	// Set-up: a durable server on an empty directory, exercised by one
	// register and delete of each dataset.
	var a *api
	for k := 0; k < setupRepeats; k++ {
		start := time.Now()
		if a, err = newAPI(server.Config{DataDir: dir}); err != nil {
			return nil, err
		}
		for _, in := range ins {
			ds, _, err := a.register(nil, in)
			if err != nil {
				return nil, err
			}
			if err := a.remove(nil, ds.ID); err != nil {
				return nil, err
			}
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
	}

	var register []float64
	start := time.Now()
	for cycles := 0; cycles == 0 || time.Since(start) < e.window; cycles++ {
		o.attempt(1)
		tr := e.tracerFor(cycles)
		next, restore, reg, err := restartCycle(tr, a, dir, ins, appends)
		if err != nil {
			o.fail("cycle %d: %v", cycles+1, err)
			if next == nil {
				return nil, fmt.Errorf("cycle %d left no server: %w", cycles+1, err)
			}
		} else {
			o.addLat(tr != nil, restore)
		}
		register = append(register, reg...)
		a = next
	}
	o.elapsed = time.Since(start)
	o.gates = []row{{"register.p50_ms", median(register), "ms",
		fmt.Sprintf("register one %d-row CSV as text/csv, route time, median of %d", e.rows, len(register))}}
	return o, nil
}

// restartCycle runs one cycle on a and returns the restarted server,
// the restore time and the register route times.
func restartCycle(tr *tracer, a *api, dir string, ins []*input, appends [][][][]string) (*api, time.Duration, []float64, error) {
	root := tr.root("restart.cycle")
	defer root.end(nil)
	var reg []float64
	dss := make([]restartDS, len(ins))
	for k, in := range ins {
		ds, d, err := a.register(root, in)
		if err != nil {
			return a, 0, reg, err
		}
		reg = append(reg, ms(d))
		dss[k] = restartDS{id: ds.ID, rows: ds.Rows, probe: mustJSON(validateReq{DCs: in.dcs[:1]})}
	}
	for b := 0; b < restartBatches; b++ {
		for k := range ins {
			resp, _, err := a.appendRows(root, dss[k].id, appends[k][b])
			if err != nil {
				return a, 0, reg, err
			}
			if want := dss[k].rows + (b+1)*appendSize; resp.Rows != want {
				return a, 0, reg, fmt.Errorf("append answered %d rows, want %d", resp.Rows, want)
			}
		}
	}
	before := make([]validateResp, len(ins))
	for k := range ins {
		v, _, err := a.validate(root, dss[k].id, dss[k].probe)
		if err != nil {
			return a, 0, reg, err
		}
		before[k] = v
	}

	// A restarted server is a fresh process with an empty heap; collect
	// the cycle's garbage so the restore does not pay for it.
	runtime.GC()
	sp := root.child("restart.restore")
	t0 := time.Now()
	st := sp.child("server.startup")
	next, err := newAPI(server.Config{DataDir: dir})
	st.end(nil)
	if err != nil {
		return nil, 0, reg, err
	}
	after := make([]validateResp, len(ins))
	for k := range ins {
		if after[k], _, err = next.firstValidate(sp, dss[k].id, dss[k].probe); err != nil {
			return next, 0, reg, err
		}
	}
	restore := time.Since(t0)
	sp.end(nil)

	for k, in := range ins {
		b, f := before[k], after[k]
		if b.Rows != f.Rows || b.Rows != dss[k].rows+restartBatches*appendSize ||
			len(b.DCs) != 1 || len(f.DCs) != 1 || b.DCs[0].Violations != f.DCs[0].Violations {
			return next, 0, reg, fmt.Errorf("%s: before restart rows %d verdicts %v, after rows %d verdicts %v",
				in.name, b.Rows, b.DCs, f.Rows, f.DCs)
		}
		if err := next.remove(root, dss[k].id); err != nil {
			return next, 0, reg, err
		}
	}
	return next, restore, reg, nil
}
