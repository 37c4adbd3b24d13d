package server

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// latBounds are the histogram bucket upper bounds. Exponential-ish
// spacing from 50µs to 10s covers everything from a warm cached
// validate to a large cold repair; the final implicit bucket is +Inf.
var latBounds = []time.Duration{
	50 * time.Microsecond, 100 * time.Microsecond, 250 * time.Microsecond,
	500 * time.Microsecond, time.Millisecond, 2500 * time.Microsecond,
	5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond,
	50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
	500 * time.Millisecond, time.Second, 2500 * time.Millisecond,
	5 * time.Second, 10 * time.Second,
}

// histogram is a small fixed-bucket latency histogram. Quantiles are
// approximated by the upper bound of the bucket holding the quantile
// rank — coarse, but stable, allocation-free, and monotone.
type histogram struct {
	buckets []int64 // len(latBounds)+1; last is the overflow bucket
	count   int64
	sum     time.Duration
}

func newHistogram() *histogram {
	return &histogram{buckets: make([]int64, len(latBounds)+1)}
}

func (h *histogram) observe(d time.Duration) {
	k := sort.Search(len(latBounds), func(i int) bool { return d <= latBounds[i] })
	h.buckets[k]++
	h.count++
	h.sum += d
}

// quantile returns the approximate q-quantile (0 < q ≤ 1).
func (h *histogram) quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	rank := int64(q*float64(h.count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for k, c := range h.buckets {
		cum += c
		if cum >= rank {
			if k < len(latBounds) {
				return latBounds[k]
			}
			return 2 * latBounds[len(latBounds)-1] // overflow bucket
		}
	}
	return latBounds[len(latBounds)-1]
}

func (h *histogram) mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// metrics aggregates per-route request counts, status counts, and
// latency histograms. One instance serves the whole server; every
// method is safe for concurrent use.
type metrics struct {
	mu       sync.Mutex
	requests map[string]int64
	statuses map[int]int64
	latency  map[string]*histogram
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[string]int64),
		statuses: make(map[int]int64),
		latency:  make(map[string]*histogram),
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
		h = newHistogram()
		m.latency[route] = h
	}
	h.observe(d)
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
			Count:  h.count,
			MeanUS: float64(h.mean()) / float64(time.Microsecond),
			P50US:  float64(h.quantile(0.50)) / float64(time.Microsecond),
			P99US:  float64(h.quantile(0.99)) / float64(time.Microsecond),
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
