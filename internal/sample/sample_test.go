package sample

import (
	"math"
	"testing"
)

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.841344746, 1.0},
		{0.95, 1.6448536269514722},
		{0.975, 1.959963984540054},
		{0.99, 2.3263478740408408},
		{0.999, 3.090232306167813},
		{0.05, -1.6448536269514722},
		{0.025, -1.959963984540054},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); math.Abs(got-c.want) > 1e-8 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for p := 0.0005; p < 1; p += 0.0101 {
		x := NormalQuantile(p)
		if got := normalCDF(x); math.Abs(got-p) > 1e-9 {
			t.Fatalf("Φ(Φ⁻¹(%v)) = %v", p, got)
		}
	}
}

func TestNormalQuantileExtremes(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("quantile extremes should be infinite")
	}
	if NormalQuantile(1e-12) > -6 {
		t.Error("deep tail quantile too small in magnitude")
	}
}

func TestThresholdConvergesToEps(t *testing.T) {
	eps, pHat, alpha := 0.01, 0.005, 0.05
	prev := Threshold(eps, pHat, 10, alpha)
	for _, rows := range []int{100, 1000, 10000, 100000} {
		cur := Threshold(eps, pHat, rows, alpha)
		if cur < prev-1e-15 {
			t.Fatalf("threshold not monotone in sample size: %v then %v", prev, cur)
		}
		prev = cur
	}
	if math.Abs(prev-eps) > 1e-4 {
		t.Errorf("threshold at 100k rows = %v, want ≈ %v", prev, eps)
	}
	// Tiny samples give a conservative (smaller) threshold.
	if small := Threshold(eps, pHat, 20, alpha); small >= eps {
		t.Errorf("threshold on 20 rows = %v, not conservative", small)
	}
}

func TestThresholdClampsAtZero(t *testing.T) {
	if got := Threshold(0.001, 0.5, 5, 0.01); got != 0 {
		t.Errorf("threshold = %v, want 0 (clamped)", got)
	}
}

func TestZ(t *testing.T) {
	if got := Z(0.05); math.Abs(got-1.6448536269514722) > 1e-8 {
		t.Errorf("Z(0.05) = %v", got)
	}
	if Z(0.5) != 0 {
		t.Errorf("Z(0.5) = %v, want 0", Z(0.5))
	}
}

func TestStdErr(t *testing.T) {
	if StdErr(0.5, 0) != 0 {
		t.Error("StdErr with no pairs should be 0")
	}
	if got, want := StdErr(0.5, 100), 0.05; math.Abs(got-want) > 1e-12 {
		t.Errorf("StdErr = %v, want %v", got, want)
	}
}
