// Package sax implements Symbolic Aggregate approXimation (Lin, Keogh,
// Lonardi & Chiu 2003) and the motif/pattern frequency analysis the paper
// uses for behaviour discovery (§5.1): transformed traces (e.g. inter-
// packet arrival-time differences) are discretized into symbol strings,
// frequently occurring patterns are counted, and a "diff" between the
// pattern sets of real and simulated traces surfaces behaviours the
// simulator fails to reproduce — in Fig 8, the symbol 'a' (negative
// inter-arrival, i.e. reordering) present in ground truth but absent from
// iBoxNet.
package sax

import (
	"math"
	"sort"
)

// GaussianBreakpoints returns the a−1 breakpoints that divide the standard
// normal distribution into a equiprobable regions (the classic SAX table,
// computed here via the probit function so any alphabet size works).
func GaussianBreakpoints(a int) []float64 {
	if a < 2 {
		return nil
	}
	bps := make([]float64, a-1)
	for i := 1; i < a; i++ {
		bps[i-1] = probit(float64(i) / float64(a))
	}
	return bps
}

// probit is the inverse standard-normal CDF (Acklam's rational
// approximation refined with one Newton step; |error| < 1e-9 over (0,1)).
func probit(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Acklam coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	var x float64
	switch {
	case p < 0.02425:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > 1-0.02425:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
	// One Newton refinement on Φ(x) − p.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}

// PAA computes the Piecewise Aggregate Approximation of xs with the given
// number of segments: each output value is the mean of (len/segments)
// consecutive samples, handling non-divisible lengths fractionally.
func PAA(xs []float64, segments int) []float64 {
	n := len(xs)
	if segments <= 0 || n == 0 {
		return nil
	}
	if segments >= n {
		return append([]float64(nil), xs...)
	}
	out := make([]float64, segments)
	for i := 0; i < segments; i++ {
		// Fractional segment boundaries.
		lo := float64(i) * float64(n) / float64(segments)
		hi := float64(i+1) * float64(n) / float64(segments)
		sum := 0.0
		for j := int(lo); j < int(math.Ceil(hi)) && j < n; j++ {
			l := math.Max(lo, float64(j))
			h := math.Min(hi, float64(j+1))
			sum += xs[j] * (h - l)
		}
		out[i] = sum / (hi - lo)
	}
	return out
}

// Discretize performs classic SAX symbolization: z-normalize, then map
// each value to a symbol 'a'.. by the Gaussian breakpoints. A constant
// series maps to the middle symbol.
func Discretize(xs []float64, alphabet int) []byte {
	if len(xs) == 0 || alphabet < 2 {
		return nil
	}
	m := 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		d := x - m
		v += d * d
	}
	sd := math.Sqrt(v / float64(len(xs)))
	out := make([]byte, len(xs))
	if sd == 0 {
		mid := byte('a' + alphabet/2)
		for i := range out {
			out[i] = mid
		}
		return out
	}
	bps := GaussianBreakpoints(alphabet)
	for i, x := range xs {
		z := (x - m) / sd
		s := sort.SearchFloat64s(bps, z)
		out[i] = byte('a' + s)
	}
	return out
}

// ArrivalSymbolizer is the Fig 8 symbolization of inter-packet arrival
// times: symbol 'a' is reserved for negative values (reordering events),
// and the positive range is divided into alphabet−1 equiprobable bins
// ('b' = small positive … last = large positive) using quantile
// breakpoints fitted on reference data.
type ArrivalSymbolizer struct {
	Alphabet    int
	breakpoints []float64 // len alphabet−2, ascending, over positives
}

// FitArrivalSymbolizer fits the positive-value quantile breakpoints on the
// reference sample (typically the ground-truth traces' inter-arrivals).
func FitArrivalSymbolizer(ref []float64, alphabet int) *ArrivalSymbolizer {
	if alphabet < 3 {
		alphabet = 3
	}
	var pos []float64
	for _, v := range ref {
		if v >= 0 {
			pos = append(pos, v)
		}
	}
	sort.Float64s(pos)
	bins := alphabet - 1
	bps := make([]float64, bins-1)
	for i := 1; i < bins; i++ {
		if len(pos) == 0 {
			bps[i-1] = float64(i)
		} else {
			idx := i * len(pos) / bins
			if idx >= len(pos) {
				idx = len(pos) - 1
			}
			bps[i-1] = pos[idx]
		}
	}
	return &ArrivalSymbolizer{Alphabet: alphabet, breakpoints: bps}
}

// Symbols maps inter-arrival values to symbols: negatives → 'a',
// positives → 'b'.. by the fitted breakpoints.
func (s *ArrivalSymbolizer) Symbols(xs []float64) []byte {
	out := make([]byte, len(xs))
	for i, v := range xs {
		if v < 0 {
			out[i] = 'a'
			continue
		}
		idx := sort.SearchFloat64s(s.breakpoints, v)
		out[i] = byte('b' + idx)
	}
	return out
}

// MergeFrequencies averages pattern frequencies across multiple symbol
// strings, weighting by each string's pattern count.
func MergeFrequencies(syms [][]byte, k int) map[string]float64 {
	out := map[string]float64{}
	total := 0
	for _, s := range syms {
		if len(s) < k {
			continue
		}
		n := len(s) - k + 1
		total += n
		for i := 0; i+k <= len(s); i++ {
			out[string(s[i:i+k])]++
		}
	}
	if total == 0 {
		return out
	}
	for key := range out {
		out[key] /= float64(total)
	}
	return out
}

// DiffResult partitions patterns by presence: OnlyA are behaviours in A
// (ground truth) missing from B (simulator) — the discovery output of
// §5.1; OnlyB the reverse; Both the intersection.
type DiffResult struct {
	OnlyA []string
	OnlyB []string
	Both  []string
}

// Diff compares two pattern-frequency tables with a minimum frequency
// threshold below which a pattern counts as absent.
func Diff(a, b map[string]float64, threshold float64) DiffResult {
	var res DiffResult
	seen := map[string]bool{}
	for p, fa := range a {
		seen[p] = true
		fb := b[p]
		switch {
		case fa >= threshold && fb >= threshold:
			res.Both = append(res.Both, p)
		case fa >= threshold:
			res.OnlyA = append(res.OnlyA, p)
		case fb >= threshold:
			res.OnlyB = append(res.OnlyB, p)
		}
	}
	for p, fb := range b {
		if !seen[p] && fb >= threshold {
			res.OnlyB = append(res.OnlyB, p)
		}
	}
	sort.Strings(res.OnlyA)
	sort.Strings(res.OnlyB)
	sort.Strings(res.Both)
	return res
}
