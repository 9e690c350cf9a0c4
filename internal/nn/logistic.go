package nn

import "math"

// Logistic is a linear logistic-regression classifier — the paper's
// "lightweight and much faster linear" reordering predictor (§5.1), which
// takes instantaneous sending rate, inter-packet spacing and the
// cross-traffic estimate as features and outputs the likelihood of a
// packet being reordered.
type Logistic struct {
	W []float64
	B float64
	// feature standardization learnt during Fit
	mean, std []float64
	// priorShift is log(wPos/wNeg) from the class re-weighting used in
	// Fit. Training with balanced class weights inflates the learnt odds
	// by exactly this factor; Prob subtracts it so the returned
	// probabilities are calibrated to the true base rate while retaining
	// the reweighted fit's discrimination.
	priorShift float64
}

// NewLogistic returns an untrained classifier for dim features.
func NewLogistic(dim int) *Logistic {
	l := &Logistic{W: make([]float64, dim), mean: make([]float64, dim), std: make([]float64, dim)}
	for i := range l.std {
		l.std[i] = 1
	}
	return l
}

// Fit trains with full-batch gradient descent plus momentum on the
// standardized features, with class re-weighting (reordering events are
// rare). Labels are 0/1; epochs full passes are made. The procedure is
// deterministic, so seed is accepted only for interface symmetry with the
// stochastic trainers.
func (l *Logistic) Fit(xs [][]float64, ys []float64, epochs int, lr float64, seed int64) {
	_ = seed
	n := len(xs)
	if n == 0 {
		return
	}
	d := len(l.W)
	// Standardize features for conditioning.
	for j := 0; j < d; j++ {
		s := 0.0
		for _, x := range xs {
			s += x[j]
		}
		l.mean[j] = s / float64(n)
		v := 0.0
		for _, x := range xs {
			dd := x[j] - l.mean[j]
			v += dd * dd
		}
		l.std[j] = math.Sqrt(v / float64(n))
		if l.std[j] == 0 {
			l.std[j] = 1
		}
	}
	// Class weighting: reordering is rare, so balance the loss.
	pos := 0.0
	for _, y := range ys {
		pos += y
	}
	wPos, wNeg := 1.0, 1.0
	if pos > 0 && pos < float64(n) {
		wPos = float64(n) / (2 * pos)
		wNeg = float64(n) / (2 * (float64(n) - pos))
	}
	l.priorShift = math.Log(wPos / wNeg)
	gw := make([]float64, d)
	vw := make([]float64, d)
	var gb, vb float64
	for e := 0; e < epochs; e++ {
		for j := range gw {
			gw[j] = 0
		}
		gb = 0
		for i, x := range xs {
			z := l.B
			for j := 0; j < d; j++ {
				z += l.W[j] * (x[j] - l.mean[j]) / l.std[j]
			}
			p := sigmoid(z)
			w := wNeg
			if ys[i] > 0.5 {
				w = wPos
			}
			g := w * (p - ys[i]) / float64(n)
			for j := 0; j < d; j++ {
				gw[j] += g * (x[j] - l.mean[j]) / l.std[j]
			}
			gb += g
		}
		for j := 0; j < d; j++ {
			vw[j] = 0.9*vw[j] + gw[j]
			l.W[j] -= lr * vw[j]
		}
		vb = 0.9*vb + gb
		l.B -= lr * vb
	}
}

// Prob returns the calibrated P(y=1 | x): the class-weight prior shift
// applied during Fit is removed so probabilities track the true base rate.
func (l *Logistic) Prob(x []float64) float64 {
	return sigmoid(l.logit(x) - l.priorShift)
}

func (l *Logistic) logit(x []float64) float64 {
	z := l.B
	for j := range l.W {
		z += l.W[j] * (x[j] - l.mean[j]) / l.std[j]
	}
	return z
}
