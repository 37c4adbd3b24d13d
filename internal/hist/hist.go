// Package hist is the latency histogram shared by dcserved's /metrics
// (route latency, evidence builds, snapshot restores) and the load
// generator's reports.
package hist

import "time"

// bounds are the latency bucket upper bounds: 1.25x-spaced from 10µs
// to ~2.5 minutes (75 buckets), the final implicit bucket is +Inf. A
// 1.25x grid bounds quantile error at 25% where a 2x grid would allow
// 100%.
var bounds = buildBounds()

func buildBounds() []time.Duration {
	var out []time.Duration
	b := 10 * time.Microsecond
	for b < 160*time.Second {
		out = append(out, b)
		b = b + b/4 // 1.25x, exact in integer nanoseconds at this scale
	}
	return out
}

// Histogram is a fixed-bucket latency histogram with exact count, sum,
// and max. It is not safe for concurrent use: callers either guard it
// with a lock or give each goroutine its own and Merge them after the
// goroutines join.
type Histogram struct {
	buckets []int64
	count   int64
	sum     time.Duration
	max     time.Duration
}

// New returns an empty histogram.
func New() *Histogram {
	return &Histogram{buckets: make([]int64, len(bounds)+1)}
}

// Observe records one latency; negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	// Binary search for the bucket: a linear scan over 75 bounds on
	// every request would dominate the client's bookkeeping cost.
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if d <= bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.buckets[lo]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	for k, c := range other.buckets {
		h.buckets[k] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Max returns the largest observation exactly.
func (h *Histogram) Max() time.Duration { return h.max }

// Mean returns the exact arithmetic mean.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Quantile returns the approximate q-quantile (0 < q ≤ 1) as the upper
// bound of the bucket holding the quantile rank; the overflow bucket
// reports the exact max.
func (h *Histogram) Quantile(q float64) time.Duration {
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
			if k < len(bounds) {
				d := bounds[k]
				if d > h.max {
					return h.max // tighter: no observation exceeds max
				}
				return d
			}
			return h.max
		}
	}
	return h.max
}
