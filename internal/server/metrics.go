package server

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adc/internal/hist"
)

// metrics aggregates per-route request counts, status counts, and
// latency histograms. One instance serves the whole server; every
// method is safe for concurrent use.
type metrics struct {
	mu       sync.Mutex
	requests map[string]int64
	statuses map[int]int64
	latency  map[string]*hist.Histogram
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[string]int64),
		statuses: make(map[int]int64),
		latency:  make(map[string]*hist.Histogram),
	}
}

// arrive counts a request on its route before the handler runs. A
// handler may stream a large response to the client before it returns,
// so a count taken afterwards could lag requests the client has already
// seen answered.
func (m *metrics) arrive(route string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[route]++
}

// observe records a finished request's status and latency.
func (m *metrics) observe(route string, status int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.statuses[status]++
	h := m.latency[route]
	if h == nil {
		h = hist.New()
		m.latency[route] = h
	}
	h.Observe(d)
}

// routeLatency is the exported latency summary of one route.
type routeLatency struct {
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
}

func (m *metrics) snapshot() (requests map[string]int64, statuses map[string]int64, latency map[string]routeLatency) {
	m.mu.Lock()
	defer m.mu.Unlock()
	requests = make(map[string]int64, len(m.requests))
	for k, v := range m.requests {
		requests[k] = v
	}
	statuses = make(map[string]int64, len(m.statuses))
	for k, v := range m.statuses {
		statuses[strconv.Itoa(k)] = v
	}
	latency = make(map[string]routeLatency, len(m.latency))
	for k, h := range m.latency {
		latency[k] = routeLatency{
			Count:  h.Count(),
			MeanUS: float64(h.Mean()) / float64(time.Microsecond),
			P50US:  float64(h.Quantile(0.50)) / float64(time.Microsecond),
			P99US:  float64(h.Quantile(0.99)) / float64(time.Microsecond),
		}
	}
	return requests, statuses, latency
}

// deltaMetrics tracks incremental evidence maintenance server-wide:
// mines served by patching a cached pre-append evidence set (builds and
// the ordered pairs those deltas recomputed) versus appends whose cached
// set could not be patched and fell back to an O(n²) scratch rebuild.
type deltaMetrics struct {
	builds    atomic.Int64
	pairs     atomic.Int64
	fallbacks atomic.Int64
}

func (d *deltaMetrics) observe(delta bool, pairs int64, fallback bool) {
	if delta {
		d.builds.Add(1)
		d.pairs.Add(pairs)
	}
	if fallback {
		d.fallbacks.Add(1)
	}
}

func (d *deltaMetrics) snapshot() map[string]int64 {
	return map[string]int64{
		"builds":    d.builds.Load(),
		"pairs":     d.pairs.Load(),
		"fallbacks": d.fallbacks.Load(),
	}
}
