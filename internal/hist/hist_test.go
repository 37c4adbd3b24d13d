package hist

import (
	"math/rand"
	"testing"
	"time"
)

// TestHistogramBucketCount pins the bucket grid so the hist.go header
// comment cannot drift from the code again: 75 explicit 1.25x-spaced
// bounds from 10µs to under 160s, plus the implicit +Inf bucket.
func TestHistogramBucketCount(t *testing.T) {
	if got := len(bounds); got != 75 {
		t.Fatalf("len(bounds) = %d, want 75", got)
	}
	if bounds[0] != 10*time.Microsecond {
		t.Errorf("first bound = %v, want 10µs", bounds[0])
	}
	last := bounds[len(bounds)-1]
	if last >= 160*time.Second || last < 128*time.Second {
		t.Errorf("last bound = %v, want in [128s, 160s)", last)
	}
	if got := len(New().buckets); got != 76 {
		t.Errorf("bucket slots = %d, want 76 (75 bounds + overflow)", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := New()
	if h.Count() != 0 || h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram not zero: %+v", h)
	}
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if got := h.Max(); got != 100*time.Millisecond {
		t.Fatalf("max = %v, want 100ms", got)
	}
	// The bucket grid is 1.25x-spaced: a quantile estimate may
	// overshoot the true value by at most 25%.
	checks := []struct {
		q    float64
		want time.Duration
	}{{0.50, 50 * time.Millisecond}, {0.95, 95 * time.Millisecond}, {0.99, 99 * time.Millisecond}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.want || got > c.want*5/4 {
			t.Errorf("q%.0f = %v, want in [%v, %v]", c.q*100, got, c.want, c.want*5/4)
		}
	}
	mean := h.Mean()
	if mean != 50*time.Millisecond+500*time.Microsecond {
		t.Errorf("mean = %v, want 50.5ms exactly", mean)
	}
}

func TestHistogramMergeMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	whole := New()
	parts := []*Histogram{New(), New(), New()}
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.Intn(2_000_000_000))
		whole.Observe(d)
		parts[i%3].Observe(d)
	}
	merged := New()
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Count() != whole.Count() || merged.Max() != whole.Max() || merged.Mean() != whole.Mean() {
		t.Fatalf("merge mismatch: count %d/%d max %v/%v mean %v/%v",
			merged.Count(), whole.Count(), merged.Max(), whole.Max(), merged.Mean(), whole.Mean())
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1.0} {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Errorf("q%v: merged %v != whole %v", q, merged.Quantile(q), whole.Quantile(q))
		}
	}
}

func TestHistogramOverflowBucketReportsExactMax(t *testing.T) {
	h := New()
	big := 10 * time.Minute // beyond the last bucket bound
	h.Observe(big)
	if got := h.Quantile(0.99); got != big {
		t.Fatalf("overflow quantile = %v, want exact max %v", got, big)
	}
}
