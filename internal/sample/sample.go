// Package sample implements the statistics of Section 7.2 that the
// miner applies to a sample: the one-sided normal quantile z behind f1′,
// and the sample threshold ε_J of Inequality 2 that makes a DC accepted
// on a sample an ADC of the full database with probability at least
// 1 − α. The estimator p̂ itself is the f1 loss on the sample, which
// the miner computes from the evidence set.
package sample

import "math"

// Z returns the one-sided normal quantile z such that
// Pr(N(0,1) ≤ z) = 1 − alpha, the z_{1−2α} of the paper's confidence
// derivation (the acceptance criterion is one-sided: Section 7.2
// keeps only Pr[p − p̂ ≤ z·se] ≥ 1 − α).
func Z(alpha float64) float64 {
	return NormalQuantile(1 - alpha)
}

// StdErr returns sqrt(p̂(1−p̂)/n) for n ordered pairs.
func StdErr(pHat float64, pairs int64) float64 {
	if pairs <= 0 {
		return 0
	}
	return math.Sqrt(pHat * (1 - pHat) / float64(pairs))
}

// Threshold returns ε_J^ϕ, the threshold to apply to p̂ on the sample so
// that acceptance implies, with probability at least 1−α, that the DC is
// an ADC of the full database w.r.t. ε (Inequality 2):
//
//	ε_J = ε − z_{1−2α} · sqrt(p̂(1−p̂)/n)
//
// where n = rows·(rows−1) ordered pairs of the sample. The threshold
// depends on the DC through p̂, as different DCs have different conflict
// graphs. As the sample grows, ε_J → ε.
func Threshold(eps, pHat float64, rows int, alpha float64) float64 {
	n := int64(rows) * int64(rows-1)
	t := eps - Z(alpha)*StdErr(pHat, n)
	if t < 0 {
		return 0
	}
	return t
}

// NormalQuantile computes Φ⁻¹(p), the inverse CDF of the standard
// normal distribution, using Acklam's rational approximation refined by
// one step of Halley's method (absolute error below 1e-9 across (0,1)).
// Implemented here because the module is stdlib-only.
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients of Acklam's approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement using the normal CDF error.
	e := normalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}

// normalCDF is Φ(x) via the complementary error function.
func normalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
