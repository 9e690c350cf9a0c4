package nn

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"ibox/internal/sim"
)

// numericalGrad computes a central-difference gradient of loss() with
// respect to weight i of p. An LSTM layer's weights are float32, so there
// the perturbed weights are rounded, and the difference is divided by the
// perturbation actually realised.
func numericalGrad(p *Param, i int, loss func() float64) float64 {
	const h = 1e-5
	if p.layer != nil {
		orig := p.w32[i]
		p.w32[i] = float32(float64(orig) + h)
		wp, lp := float64(p.w32[i]), loss()
		p.w32[i] = float32(float64(orig) - h)
		wm, lm := float64(p.w32[i]), loss()
		p.w32[i] = orig
		return (lp - lm) / (wp - wm)
	}
	orig := p.W[i]
	p.W[i] = orig + h
	lp := loss()
	p.W[i] = orig - h
	lm := loss()
	p.W[i] = orig
	return (lp - lm) / (2 * h)
}

// gradCheck verifies every analytic gradient in params against finite
// differences of loss(). compute() must zero nothing and accumulate grads
// from a clean state.
func gradCheck(t *testing.T, params []*Param, compute func() float64, loss func() float64) {
	t.Helper()
	for _, p := range params {
		p.ZeroGrad()
	}
	compute()
	for pi, p := range params {
		for i := range p.size() {
			want := numericalGrad(p, i, loss)
			got := p.Grad[i]
			tol := 1e-4 * math.Max(1, math.Abs(want))
			if math.Abs(got-want) > tol {
				t.Fatalf("param %d[%d]: analytic %.8f vs numeric %.8f", pi, i, got, want)
			}
		}
	}
}

// Forward and Backward are ForwardInto and BackwardInto returning fresh
// slices.
func (d *Dense) Forward(x []float64) []float64 {
	y := make([]float64, d.Out)
	d.ForwardInto(x, y)
	return y
}

func (d *Dense) Backward(x, dy []float64) []float64 {
	dx := make([]float64, d.In)
	d.BackwardInto(x, dy, dx)
	return dx
}

func TestDenseForward(t *testing.T) {
	d := NewDense(2, 2, 1)
	copy(d.W.W, []float64{1, 2, 3, 4})
	copy(d.B.W, []float64{10, 20})
	y := d.Forward([]float64{1, 1})
	if y[0] != 13 || y[1] != 27 {
		t.Errorf("forward = %v, want [13 27]", y)
	}
}

func TestDenseGradCheck(t *testing.T) {
	d := NewDense(3, 2, 7)
	x := []float64{0.5, -1.2, 2.0}
	target := []float64{1.0, -0.5}
	loss := func() float64 {
		y := d.Forward(x)
		l := 0.0
		for i := range y {
			dd := y[i] - target[i]
			l += 0.5 * dd * dd
		}
		return l
	}
	compute := func() float64 {
		y := d.Forward(x)
		dy := make([]float64, len(y))
		for i := range y {
			dy[i] = y[i] - target[i]
		}
		d.Backward(x, dy)
		return loss()
	}
	gradCheck(t, d.Params(), compute, loss)
}

func TestDenseBackwardInputGrad(t *testing.T) {
	d := NewDense(3, 2, 3)
	x := []float64{0.3, 0.7, -0.2}
	dy := []float64{1.5, -0.4}
	dx := d.Backward(x, dy)
	// dx = Wᵀ·dy
	for i := 0; i < 3; i++ {
		want := d.W.W[0*3+i]*dy[0] + d.W.W[1*3+i]*dy[1]
		if math.Abs(dx[i]-want) > 1e-12 {
			t.Errorf("dx[%d] = %v, want %v", i, dx[i], want)
		}
	}
}

func TestLSTMStepShapesAndDeterminism(t *testing.T) {
	m := NewLSTM(3, 5, 2, 42)
	x := []float64{0.1, -0.2, 0.3}
	s1, s2 := m.NewState(), m.NewState()
	h1 := append([]float64(nil), m.StepInto(s1, x)...)
	h2 := m.StepInto(s2, x)
	if len(h1) != 5 {
		t.Fatalf("output size %d", len(h1))
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatal("StepInto not deterministic")
		}
	}
	// Advancing state must change the output for the same input.
	h3 := m.StepInto(s1, x)
	same := true
	for i := range h1 {
		if h1[i] != h3[i] {
			same = false
		}
	}
	if same {
		t.Error("state had no effect")
	}
}

func TestLSTMGradCheckGaussian(t *testing.T) {
	// Full BPTT gradient check through a 2-layer LSTM + Gaussian head over
	// a short sequence.
	m := NewSequenceModel(GaussianHead, 2, 3, 2, 11)
	xs := [][]float64{{0.5, -0.1}, {0.2, 0.8}, {-0.7, 0.3}, {0.1, 0.1}}
	ys := []float64{0.3, -0.2, 0.5, 0.0}
	loss := func() float64 {
		st := m.LSTM.NewState()
		total := 0.0
		for tt, x := range xs {
			l, _ := gaussianNLL(m.Head.Forward(m.LSTM.StepInto(st, x)), ys[tt])
			total += l
		}
		return total / float64(len(xs))
	}
	compute := func() float64 { return m.TrainSequence(xs, ys, nil) }
	gradCheck(t, m.Params(), compute, loss)
}

func TestLSTMGradCheckBinary(t *testing.T) {
	m := NewSequenceModel(BinaryHead, 2, 3, 1, 13)
	xs := [][]float64{{0.5, -0.1}, {0.2, 0.8}, {-0.7, 0.3}}
	ys := []float64{1, 0, 1}
	loss := func() float64 {
		st := m.LSTM.NewState()
		total := 0.0
		for tt, x := range xs {
			l, _ := bceLoss(m.Head.Forward(m.LSTM.StepInto(st, x))[0], ys[tt])
			total += l
		}
		return total / float64(len(xs))
	}
	compute := func() float64 { return m.TrainSequence(xs, ys, nil) }
	gradCheck(t, m.Params(), compute, loss)
}

func TestTrainSequenceMask(t *testing.T) {
	m := NewSequenceModel(GaussianHead, 1, 4, 1, 5)
	xs := [][]float64{{1}, {2}, {3}}
	ys := []float64{1, 99999, 3} // step 1 masked out
	mask := []bool{true, false, true}
	l1 := m.TrainSequence(xs, ys, mask)
	if math.IsNaN(l1) || math.IsInf(l1, 0) {
		t.Fatalf("masked loss = %v", l1)
	}
	// With everything masked, loss is NaN and no gradient accumulates.
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
	l2 := m.TrainSequence(xs, ys, []bool{false, false, false})
	if !math.IsNaN(l2) {
		t.Errorf("fully masked loss = %v, want NaN", l2)
	}
	for _, p := range m.Params() {
		for _, g := range p.Grad {
			if g != 0 {
				t.Fatal("fully masked sequence accumulated gradient")
			}
		}
	}
}

func TestLSTMLearnsSyntheticPattern(t *testing.T) {
	// Learn y_t = 0.8·x_t + 0.5·x_{t−1}: requires memory, solvable by a
	// small LSTM in a few hundred steps.
	m := NewSequenceModel(GaussianHead, 1, 8, 1, 21)
	opt := NewAdam(0.01, m.Params())
	rng := sim.NewRand(9, 0)
	makeSeq := func() ([][]float64, []float64) {
		T := 30
		xs := make([][]float64, T)
		ys := make([]float64, T)
		prev := 0.0
		for t := 0; t < T; t++ {
			x := rng.Float64()*2 - 1
			xs[t] = []float64{x}
			ys[t] = 0.8*x + 0.5*prev
			prev = x
		}
		return xs, ys
	}
	var last float64
	for epoch := 0; epoch < 300; epoch++ {
		xs, ys := makeSeq()
		last = m.TrainSequence(xs, ys, nil)
		opt.Step()
	}
	// Gaussian NLL of a well-fit unit problem should fall well below the
	// initial ~1.4 (σ≈1 guessing); demand clear learning.
	if last > 0.2 {
		t.Errorf("final NLL = %.3f, model failed to learn", last)
	}
	// Check predictions directly.
	xs, ys := makeSeq()
	outs := predictSeq(m, xs)
	mse := 0.0
	for t := 1; t < len(xs); t++ {
		d := outs[t].Mu - ys[t]
		mse += d * d
	}
	mse /= float64(len(xs) - 1)
	if mse > 0.02 {
		t.Errorf("prediction MSE = %.4f, want < 0.02", mse)
	}
}

func TestAdamReducesLoss(t *testing.T) {
	d := NewDense(2, 1, 3)
	opt := NewAdam(0.05, d.Params())
	x := []float64{1, 2}
	target := 3.0
	lossAt := func() float64 {
		y := d.Forward(x)[0]
		return 0.5 * (y - target) * (y - target)
	}
	initial := lossAt()
	for i := 0; i < 200; i++ {
		y := d.Forward(x)[0]
		d.Backward(x, []float64{y - target})
		opt.Step()
	}
	if final := lossAt(); final > initial/100 {
		t.Errorf("loss %.6f → %.6f: Adam failed to optimize", initial, final)
	}
}

func TestAdamClipsGradients(t *testing.T) {
	p := newParam(2)
	p.Grad = []float64{3e6, 4e6} // as a backward pass would leave it
	opt := NewAdam(0.1, []*Param{p})
	opt.Step() // must not produce NaN/Inf weights
	for _, w := range p.W {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatal("clipped step produced non-finite weight")
		}
	}
}

// TestSkippedSequenceLeavesNoGradient: a sequence FitSequence skips for its
// non-finite loss has already run its backward pass; its gradients must
// not leak into the next update. Training on [good, bad, good] gives the
// weights of [good, good], bit for bit.
func TestSkippedSequenceLeavesNoGradient(t *testing.T) {
	xs := randSeq(5, 6, 3)
	good := []float64{0.2, -0.1, 0.4, 0, 0.3, -0.2}
	bad := append([]float64(nil), good...)
	bad[2] = math.Inf(1)
	fit := func(seqs ...[]float64) []byte {
		m := NewSequenceModel(GaussianHead, 3, 5, 2, 8)
		opt := NewAdam(0.01, m.Params())
		for i, ys := range seqs {
			if _, _, ok := m.FitSequence(opt, xs, ys, nil); ok != !math.IsInf(ys[2], 0) {
				t.Fatalf("sequence %d: applied = %v", i, ok)
			}
		}
		return rawSection(t, m)
	}
	if !bytes.Equal(fit(good, bad, good), fit(good, good)) {
		t.Fatal("a skipped sequence changed the weights")
	}
}

func TestGaussianNLLGradient(t *testing.T) {
	out := []float64{0.5, -0.3}
	y := 1.2
	_, grad := gaussianNLL(out, y)
	for i := range out {
		const h = 1e-6
		out[i] += h
		lp, _ := gaussianNLL(out, y)
		out[i] -= 2 * h
		lm, _ := gaussianNLL(out, y)
		out[i] += h
		num := (lp - lm) / (2 * h)
		if math.Abs(num-grad[i]) > 1e-5 {
			t.Errorf("gaussianNLL grad[%d] = %v, numeric %v", i, grad[i], num)
		}
	}
}

func TestGaussianClamp(t *testing.T) {
	g := gaussianFromHead([]float64{0, -100})
	if g.Sigma < math.Exp(logSigmaMin)*0.99 {
		t.Errorf("sigma = %v not clamped", g.Sigma)
	}
	g = gaussianFromHead([]float64{0, 100})
	if g.Sigma > math.Exp(logSigmaMax)*1.01 {
		t.Errorf("sigma = %v not clamped", g.Sigma)
	}
	// Gradient through a clamped logSigma is zero.
	_, grad := gaussianNLL([]float64{0, 100}, 5)
	if grad[1] != 0 {
		t.Error("clamped logSigma has nonzero gradient")
	}
}

func TestBCELoss(t *testing.T) {
	l0, g0 := bceLoss(100, 1) // confident correct
	if l0 > 1e-6 || math.Abs(g0) > 1e-6 {
		t.Errorf("confident correct: loss %v grad %v", l0, g0)
	}
	l1, g1 := bceLoss(-100, 1) // confident wrong
	if l1 < 10 || g1 > -0.99 {
		t.Errorf("confident wrong: loss %v grad %v", l1, g1)
	}
}

func TestPredictorClosedLoop(t *testing.T) {
	m := NewSequenceModel(GaussianHead, 2, 4, 1, 33)
	st, head := m.LSTM.NewState(), make([]float64, m.Head.Out)
	step := func() GaussianOutput { return m.HeadGaussian(m.LSTM.StepInto(st, []float64{1, 0}), head) }
	out1 := step()
	out2 := step()
	if out1 == out2 {
		t.Error("recurrent state not advancing")
	}
	st = m.LSTM.NewState()
	out3 := step()
	if out1 != out3 {
		t.Error("a fresh state did not restore the initial output")
	}
	if out1.Sigma <= 0 {
		t.Error("non-positive sigma")
	}
}

func TestNumParams(t *testing.T) {
	m := NewSequenceModel(GaussianHead, 4, 8, 2, 0)
	// Layer 1: 4·8·4 + 4·8·8 + 4·8 = 128+256+32 = 416
	// Layer 2: 4·8·8 + 4·8·8 + 32 = 256+256+32 = 544
	// Head: 8·2 + 2 = 18
	if got := m.NumParams(); got != 416+544+18 {
		t.Errorf("NumParams = %d, want %d", got, 416+544+18)
	}
}

func TestLogisticLearnsSeparableData(t *testing.T) {
	rng := sim.NewRand(4, 0)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 400; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		y := 0.0
		if x[0]+x[1] > 0 {
			y = 1
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	l := NewLogistic(2)
	l.Fit(xs, ys, 300, 0.5, 0)
	correct := 0
	for i := range xs {
		pred := 0.0
		if l.Prob(xs[i]) > 0.5 {
			pred = 1
		}
		if pred == ys[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(xs)); acc < 0.95 {
		t.Errorf("logistic accuracy = %.2f, want ≥ 0.95", acc)
	}
}

func TestLogisticImbalancedClasses(t *testing.T) {
	// 5% positive rate (like reordering): class weighting must keep recall
	// usable rather than predicting all-negative.
	rng := sim.NewRand(14, 0)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 1000; i++ {
		y := 0.0
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		if i%20 == 0 {
			y = 1
			x[0] += 2.5
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	l := NewLogistic(2)
	l.Fit(xs, ys, 300, 0.5, 0)
	// The balanced (uncalibrated) probability discriminates at the 0.5
	// threshold.
	tp, fn := 0, 0
	for i := range xs {
		if ys[i] == 1 {
			if sigmoid(l.logit(xs[i])) > 0.5 {
				tp++
			} else {
				fn++
			}
		}
	}
	if recall := float64(tp) / float64(tp+fn); recall < 0.7 {
		t.Errorf("recall on rare class = %.2f, want ≥ 0.7", recall)
	}
	// The calibrated Prob tracks the true base rate (≈5%) on average.
	sum := 0.0
	for i := range xs {
		sum += l.Prob(xs[i])
	}
	if avg := sum / float64(len(xs)); avg > 0.15 {
		t.Errorf("mean calibrated probability = %.3f, want near base rate 0.05", avg)
	}
}

func TestLogisticEmptyFit(t *testing.T) {
	l := NewLogistic(2)
	l.Fit(nil, nil, 10, 0.1, 0) // must not panic
	if p := l.Prob([]float64{1, 1}); p != 0.5 {
		t.Errorf("untrained prob = %v, want 0.5", p)
	}
}

// TestFitSequenceNoAllocs pins the reused BPTT workspace: once a model has
// trained a sequence at least as long, training one more and applying the
// Adam step allocates nothing.
func TestFitSequenceNoAllocs(t *testing.T) {
	m := NewSequenceModel(GaussianHead, 5, 16, 2, 3)
	opt := NewAdam(0.01, m.Params())
	xs := randSeq(4, 50, 5)
	ys := randSeq(5, 1, 50)[0]
	m.FitSequence(opt, xs, ys, nil)
	if n := testing.AllocsPerRun(20, func() { m.FitSequence(opt, xs[:30], ys[:30], nil) }); n != 0 {
		t.Fatalf("FitSequence allocates %v times per sequence, want 0", n)
	}
}

// lossSink keeps benchmarked losses live.
var lossSink float64

// BenchmarkTrainSequence times one BPTT pass (TrainSequence, forward and
// backward) over a 200-step sequence at iBoxML's bench-scale shape, at
// the small served shape and at the paper's 256×4. With -benchmem it also
// shows that a warmed model trains without allocating.
func BenchmarkTrainSequence(b *testing.B) {
	for _, sh := range []struct{ hidden, layers int }{{16, 2}, {96, 1}, {256, 4}} {
		b.Run(fmt.Sprintf("%dx%d", sh.hidden, sh.layers), func(b *testing.B) {
			const T = 200
			m := NewSequenceModel(GaussianHead, 5, sh.hidden, sh.layers, 3)
			xs := randSeq(4, T, 5)
			ys := randSeq(5, 1, T)[0]
			m.TrainSequence(xs, ys, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lossSink = m.TrainSequence(xs, ys, nil)
			}
		})
	}
}
