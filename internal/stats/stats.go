// Package stats is a from-scratch statistics toolkit covering exactly what
// the paper's evaluation needs: percentiles and summary statistics, the
// two-sample Kolmogorov–Smirnov test (used to verify iBoxNet's match with
// ground truth in §3.1.1), k-means++ clustering and t-SNE embedding (the
// instance-test analysis of Fig 4), normalized cross-correlation (the
// clustering features), and empirical CDFs (Figs 5 and 7).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance, or NaN for an empty slice.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// PercentileSorted returns the p-th percentile (p in [0,100]) of an
// already-sorted slice, interpolating linearly between closest ranks; NaN
// for an empty slice.
func PercentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary captures the quartile summary the paper reports (mean, P25, P50,
// P75) plus min/max.
type Summary struct {
	N                  int
	Mean               float64
	P25, P50, P75, P95 float64
	Min, Max           float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{Mean: nan, P25: nan, P50: nan, P75: nan, P95: nan, Min: nan, Max: nan}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{
		N:    len(s),
		Mean: Mean(s),
		P25:  PercentileSorted(s, 25),
		P50:  PercentileSorted(s, 50),
		P75:  PercentileSorted(s, 75),
		P95:  PercentileSorted(s, 95),
		Min:  s[0],
		Max:  s[len(s)-1],
	}
}

// KSResult reports a two-sample Kolmogorov–Smirnov test.
type KSResult struct {
	Statistic float64 // sup |F1 - F2|
	PValue    float64 // asymptotic two-sided p-value
}

// KSTest performs the two-sample Kolmogorov–Smirnov test (as referenced by
// the paper via scipy.stats.kstest): the statistic is the supremum
// difference between the two empirical CDFs, and the p-value uses the
// asymptotic Kolmogorov distribution with the standard effective-sample
// correction.
func KSTest(a, b []float64) KSResult {
	if len(a) == 0 || len(b) == 0 {
		return KSResult{Statistic: math.NaN(), PValue: math.NaN()}
	}
	x := append([]float64(nil), a...)
	y := append([]float64(nil), b...)
	sort.Float64s(x)
	sort.Float64s(y)
	var d float64
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		v := math.Min(x[i], y[j])
		for i < len(x) && x[i] <= v {
			i++
		}
		for j < len(y) && y[j] <= v {
			j++
		}
		diff := math.Abs(float64(i)/float64(len(x)) - float64(j)/float64(len(y)))
		if diff > d {
			d = diff
		}
	}
	n := float64(len(x))
	m := float64(len(y))
	en := math.Sqrt(n * m / (n + m))
	return KSResult{Statistic: d, PValue: ksPValue((en + 0.12 + 0.11/en) * d)}
}

// ksPValue evaluates the Kolmogorov distribution's survival function
// Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} exp(−2k²λ²).
func ksPValue(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k*k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}

// ECDF returns the empirical CDF of xs evaluated at the given points:
// out[i] = fraction of xs ≤ at[i].
func ECDF(xs, at []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]float64, len(at))
	for i, v := range at {
		out[i] = float64(sort.SearchFloat64s(s, math.Nextafter(v, math.Inf(1)))) / float64(len(s))
	}
	return out
}

// CrossCorrelation returns the normalized (Pearson) correlation of a and b
// truncated to their common length. It is the feature extractor the paper
// uses for instance-test clustering: "the cross-correlation between the
// iBoxNet rate and delay time series and their respective ground truth time
// series". Returns 0 when either side is constant.
func CrossCorrelation(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	a, b = a[:n], b[:n]
	ma, mb := Mean(a), Mean(b)
	var sab, saa, sbb float64
	for i := 0; i < n; i++ {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

// L2 returns the Euclidean distance between two equal-length vectors.
func L2(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
