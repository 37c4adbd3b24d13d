package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanRec is one recorded span, the JSONL line format of -spans.
// Times are nanoseconds since the tracer started. ParentID 0 marks the
// root span of a trace (one per job or request).
type spanRec struct {
	TraceID  int64              `json:"trace_id"`
	SpanID   int64              `json:"span_id"`
	ParentID int64              `json:"parent_id"`
	Name     string             `json:"name"`
	StartNS  int64              `json:"start_ns"`
	DurNS    int64              `json:"dur_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so workload code records
// spans unconditionally.
type tracer struct {
	t0  time.Time
	ids atomic.Int64

	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span. Spans are recorded only by the benchmark's own
// code, around its calls into each layer of the program.
type span struct {
	tr     *tracer
	trace  int64
	id     int64
	parent int64
	name   string
	start  time.Time
}

// root opens the root span of a new trace.
func (t *tracer) root(name string) *span { return t.rootAt(name, time.Now()) }

// rootAt opens a root span that started at start: an open-loop request
// is timed from when it was due, not from when it was sent.
func (t *tracer) rootAt(name string, start time.Time) *span {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	return &span{tr: t, trace: id, id: id, name: name, start: start}
}

// child opens a span under s.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return &span{tr: s.tr, trace: s.trace, id: s.tr.ids.Add(1), parent: s.id, name: name, start: time.Now()}
}

// end closes s, attaching optional counters.
func (s *span) end(counters map[string]float64) {
	if s == nil {
		return
	}
	s.tr.record(s.trace, s.id, s.parent, s.name, s.start, time.Since(s.start), counters)
}

// add records a child of s whose timing the program reported itself
// (a stage duration from adc.Result, a check's duration_ms): the
// duration is exact, the start is where the caller places it.
func (s *span) add(name string, start time.Time, dur time.Duration, counters map[string]float64) {
	if s == nil {
		return
	}
	s.tr.record(s.trace, s.tr.ids.Add(1), s.id, name, start, dur, counters)
}

func (t *tracer) record(trace, id, parent int64, name string, start time.Time, dur time.Duration, counters map[string]float64) {
	r := spanRec{TraceID: trace, SpanID: id, ParentID: parent, Name: name,
		StartNS: int64(start.Sub(t.t0)), DurNS: int64(dur), Counters: counters}
	t.mu.Lock()
	t.spans = append(t.spans, r)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// writeJSONL writes spans one JSON object per line.
func writeJSONL(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once; a child sticking out of its parent is clipped). Never negative.
func selfTimes(spans []spanRec) map[int64]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.ParentID != 0 {
			children[s.ParentID] = append(children[s.ParentID], [2]int64{s.StartNS, s.StartNS + s.DurNS})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		lo, hi := s.StartNS, s.StartNS+s.DurNS
		iv := children[s.SpanID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, cur := int64(0), lo
		for _, c := range iv {
			a, b := max(c[0], cur), min(c[1], hi)
			if b > a {
				covered += b - a
				cur = b
			}
		}
		self[s.SpanID] = s.DurNS - covered
	}
	return self
}

// traceSummary condenses the window's spans: coverage is the share of
// the root spans' time that named layer spans account for (1 minus the
// roots' own self time, which is the benchmark's time between calls);
// layers is the self time per span name.
type traceSummary struct {
	rootNS   int64
	coverage float64
	spans    int
	layers   map[string]*layerTime
}

type layerTime struct {
	count  int
	selfNS int64
}

func summarize(spans []spanRec) traceSummary {
	self := selfTimes(spans)
	sum := traceSummary{spans: len(spans), layers: make(map[string]*layerTime)}
	var rootSelf int64
	for _, s := range spans {
		lt := sum.layers[s.Name]
		if lt == nil {
			lt = &layerTime{}
			sum.layers[s.Name] = lt
		}
		lt.count++
		lt.selfNS += self[s.SpanID]
		if s.ParentID == 0 {
			sum.rootNS += s.DurNS
			rootSelf += self[s.SpanID]
		}
	}
	if sum.rootNS > 0 {
		sum.coverage = 1 - float64(rootSelf)/float64(sum.rootNS)
	}
	return sum
}

// printLayerTable prints self time per span name, largest first, as a
// share of the root spans' total time.
func printLayerTable(w io.Writer, sum traceSummary) {
	names := make([]string, 0, len(sum.layers))
	for n := range sum.layers {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool {
		return sum.layers[names[a]].selfNS > sum.layers[names[b]].selfNS
	})
	fmt.Fprintf(w, "  %-26s %8s %12s %7s\n", "span (self time)", "count", "self_ms", "share")
	for _, n := range names {
		lt := sum.layers[n]
		share := 0.0
		if sum.rootNS > 0 {
			share = float64(lt.selfNS) / float64(sum.rootNS)
		}
		fmt.Fprintf(w, "  %-26s %8d %12.3f %6.1f%%\n", n, lt.count, float64(lt.selfNS)/1e6, 100*share)
	}
	fmt.Fprintf(w, "  %s\n", strings.Repeat("-", 56))
	fmt.Fprintf(w, "  coverage %.4f over %d spans\n", sum.coverage, sum.spans)
}
