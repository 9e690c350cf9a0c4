package nn

import (
	"math"
	"sync"
)

// GaussianOutput is a predicted delay distribution N(Mu, Sigma²), the
// paper's P(d_t | h_t) with w₁ᵀh and w₂ᵀh heads (§4.1).
type GaussianOutput struct {
	Mu    float64
	Sigma float64
}

const (
	logSigmaMin = -5
	logSigmaMax = 4
)

// gaussianFromHead maps the 2-vector head output (mu, logSigma) to a
// distribution, clamping logSigma for numeric stability.
func gaussianFromHead(out []float64) GaussianOutput {
	ls := out[1]
	if ls < logSigmaMin {
		ls = logSigmaMin
	}
	if ls > logSigmaMax {
		ls = logSigmaMax
	}
	return GaussianOutput{Mu: out[0], Sigma: math.Exp(ls)}
}

// gaussianNLL returns the negative log likelihood of y under the head
// output and the gradient with respect to the raw head outputs
// (mu, logSigma).
func gaussianNLL(out []float64, y float64) (loss float64, dOut []float64) {
	g := gaussianFromHead(out)
	z := (y - g.Mu) / g.Sigma
	loss = 0.5*math.Log(2*math.Pi) + math.Log(g.Sigma) + 0.5*z*z
	dMu := -(y - g.Mu) / (g.Sigma * g.Sigma)
	dLogSigma := 1 - z*z
	// Clamp regions have zero gradient through logSigma.
	if out[1] <= logSigmaMin || out[1] >= logSigmaMax {
		dLogSigma = 0
	}
	return loss, []float64{dMu, dLogSigma}
}

// bceLoss returns the binary cross-entropy of label y ∈ {0,1} for a raw
// logit, and the gradient with respect to the logit.
func bceLoss(logit, y float64) (loss, dLogit float64) {
	p := sigmoid(logit)
	eps := 1e-12
	loss = -(y*math.Log(p+eps) + (1-y)*math.Log(1-p+eps))
	return loss, p - y
}

// HeadKind selects the output distribution of a SequenceModel.
type HeadKind int

const (
	// GaussianHead predicts a Normal distribution per step (delay model).
	GaussianHead HeadKind = iota
	// BinaryHead predicts a Bernoulli probability per step (reordering
	// predictor).
	BinaryHead
)

// SequenceModel is the deep state-space model of Fig 6: a multi-layer LSTM
// encoding the network state h_t from the input features, with a dense
// head parameterizing the per-step output distribution.
//
// The LSTM weights live in one of two layouts, or both: the training
// layout (LSTM, what backprop indexes) and the packed inference kernel
// (see infer.go). A model built here and trained holds the training
// layout and compiles the kernel on first inference. A model read from an
// artifact holds only the kernel — its one weight copy — and gets a
// training layout, rebuilt bit for bit from the kernel, only when
// something trains or edits it (Params, TrainSequence). Questions about
// the model (Arch, NumParams, Finite, WriteWeights) read whichever layout
// exists and never rebuild one.
type SequenceModel struct {
	Kind HeadKind
	LSTM *LSTM // training layout; nil on a model read from an artifact until it trains
	Head *Dense

	// The inference kernel. Guarded by mu, as are the LSTM field's
	// transitions; dropped whenever the training layout is handed out for
	// writing, so a kernel never serves stale parameters.
	mu    sync.Mutex
	infer *InferModel
}

// Infer returns the compiled inference kernel for the current weights,
// compiling it on first use. Safe for concurrent callers.
func (m *SequenceModel) Infer() *InferModel {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.infer == nil {
		m.infer = m.LSTM.Compile()
	}
	return m.infer
}

// layout returns the training layout and the kernel as they stand; at
// least one is non-nil.
func (m *SequenceModel) layout() (*LSTM, *InferModel) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.LSTM, m.infer
}

// trainable makes the training layout the model's weights before a caller
// changes them: rebuilt from the kernel if the model has none (the only
// copy must not be dropped first), and the kernel dropped, to be
// recompiled by the next Infer.
func (m *SequenceModel) trainable() *LSTM {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.LSTM == nil {
		m.LSTM = m.infer.decompile()
	}
	m.infer = nil
	return m.LSTM
}

// Arch returns the network's architecture — layer 0's input width, the
// hidden width and the layer count — from whichever layout it holds.
func (m *SequenceModel) Arch() (in, hidden, layers int) {
	lstm, im := m.layout()
	if lstm != nil && len(lstm.Layers) > 0 {
		return lstm.Layers[0].In, lstm.Hidden(), len(lstm.Layers)
	}
	return im.Arch()
}

// Finite reports whether every weight is finite. Order does not matter
// here, so the kernel's packed buffers are read as they lie.
func (m *SequenceModel) Finite() bool {
	lstm, im := m.layout()
	var ws [][]float64
	if lstm != nil {
		for _, p := range lstm.Params() {
			ws = append(ws, p.W)
		}
	} else {
		for _, l := range im.Layers {
			ws = append(ws, l.packed)
		}
	}
	for _, p := range m.Head.Params() {
		ws = append(ws, p.W)
	}
	for _, w := range ws {
		for _, v := range w {
			if math.Float64bits(v)&expMask == expMask {
				return false
			}
		}
	}
	return true
}

// NewSequenceModel builds an LSTM stack (in→hidden ×layers) with the
// appropriate head.
func NewSequenceModel(kind HeadKind, in, hidden, layers int, seed int64) *SequenceModel {
	return &SequenceModel{
		Kind: kind,
		LSTM: NewLSTM(in, hidden, layers, seed),
		Head: NewDense(hidden, headOut(kind), seed+997),
	}
}

// Params returns every learnable parameter, for a caller that trains or
// edits the weights: a model holding only the kernel gets its training
// layout rebuilt first, and the kernel is dropped so the next inference
// compiles whatever the caller writes.
func (m *SequenceModel) Params() []*Param {
	return append(m.trainable().Params(), m.Head.Params()...)
}

// NumParams reports the total number of scalar parameters, from the
// architecture alone.
func (m *SequenceModel) NumParams() int {
	in, hidden, layers := m.Arch()
	return int(Header{Kind: m.Kind, In: in, Hidden: hidden, Layers: layers}.weightCount())
}

// TrainSequence accumulates gradients for one (xs, ys) sequence and
// returns the mean per-step loss. mask[t]=false skips step t's loss (e.g.
// lost packets whose delay is unobserved); a nil mask trains on every
// step. Call opt.Step() afterwards to apply the update (or FitSequence to
// do both).
func (m *SequenceModel) TrainSequence(xs [][]float64, ys []float64, mask []bool) float64 {
	if len(xs) == 0 || len(xs) != len(ys) {
		return math.NaN()
	}
	// The optimizer step that follows this call will change the weights:
	// train on the training layout, and drop the kernel so the next
	// Infer() sees the update.
	lstm := m.trainable()
	outs, caches := lstm.ForwardSequence(xs)
	dOut := make([][]float64, len(xs))
	total := 0.0
	counted := 0
	for t := range xs {
		dOut[t] = make([]float64, lstm.Hidden())
		if mask != nil && !mask[t] {
			continue
		}
		headOut := m.Head.Forward(outs[t])
		var loss float64
		var dHead []float64
		if m.Kind == GaussianHead {
			loss, dHead = gaussianNLL(headOut, ys[t])
		} else {
			var dLogit float64
			loss, dLogit = bceLoss(headOut[0], ys[t])
			dHead = []float64{dLogit}
		}
		total += loss
		counted++
		dOut[t] = m.Head.Backward(outs[t], dHead)
	}
	if counted == 0 {
		return math.NaN()
	}
	// Normalize so the step size is invariant to sequence length.
	scale := 1 / float64(counted)
	for t := range dOut {
		for k := range dOut[t] {
			dOut[t][k] *= scale
		}
	}
	// The head gradients were accumulated unscaled; rescale them too.
	for _, p := range m.Head.Params() {
		for i := range p.Grad {
			p.Grad[i] *= scale
		}
	}
	lstm.BackwardSequence(caches, dOut)
	return total * scale
}

// FitSequence trains on one sequence and applies the update: TrainSequence,
// then opt.Step, unless the loss is not finite. Then the gradients the
// sequence accumulated are cleared instead, so a skipped sequence leaves
// the weights and the optimizer exactly as they were. ok reports whether
// the update was applied; norm is Step's gradient norm.
func (m *SequenceModel) FitSequence(opt *Adam, xs [][]float64, ys []float64, mask []bool) (loss, norm float64, ok bool) {
	loss = m.TrainSequence(xs, ys, mask)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		opt.ZeroGrad()
		return loss, 0, false
	}
	return loss, opt.Step(), true
}

// Predictor is a stateful inference handle over a trained SequenceModel,
// supporting the closed-loop unrolling of Fig 6 (predicted delays fed back
// as the next step's input by the caller). It runs on the compiled
// inference kernel (see infer.go): steps are allocation-free and
// bitwise-identical to LSTM.Step. The kernel binds the weights as of
// construction; build a new Predictor after further training.
type Predictor struct {
	model *SequenceModel
	im    *InferModel
	st    *InferState
	head  []float64
}

// NewPredictor returns an inference handle with zero state.
func (m *SequenceModel) NewPredictor() *Predictor {
	im := m.Infer()
	return &Predictor{model: m, im: im, st: im.NewState(), head: make([]float64, m.Head.Out)}
}

// Reset zeroes the recurrent state in place.
func (p *Predictor) Reset() { p.st.Reset() }

// StepGaussian advances one timestep and returns the predicted delay
// distribution. Valid only for GaussianHead models. Allocation-free.
func (p *Predictor) StepGaussian(x []float64) GaussianOutput {
	h := p.im.StepInto(p.st, x)
	p.model.Head.ForwardInto(h, p.head)
	return gaussianFromHead(p.head)
}

// StepProb advances one timestep and returns the predicted event
// probability. Valid only for BinaryHead models. Allocation-free.
func (p *Predictor) StepProb(x []float64) float64 {
	h := p.im.StepInto(p.st, x)
	p.model.Head.ForwardInto(h, p.head)
	return sigmoid(p.head[0])
}

// HeadGaussian maps a top-layer hidden vector (e.g. InferState.Top)
// through the Gaussian head without allocating; scratch must have
// length Head.Out. Identical arithmetic to StepGaussian's head stage.
func (m *SequenceModel) HeadGaussian(h, scratch []float64) GaussianOutput {
	m.Head.ForwardInto(h, scratch)
	return gaussianFromHead(scratch)
}

// PredictSequence runs Gaussian inference over a whole input sequence from
// a fresh state (open loop: the caller supplies all features). Because the
// window is fully known, the input projections run as one blocked GEMM per
// layer (InferModel.Forward) — same results, far fewer weight streams.
func (m *SequenceModel) PredictSequence(xs [][]float64) []GaussianOutput {
	hs := m.Infer().Forward(xs)
	out := make([]GaussianOutput, len(xs))
	head := make([]float64, m.Head.Out)
	for t, h := range hs {
		m.Head.ForwardInto(h, head)
		out[t] = gaussianFromHead(head)
	}
	return out
}
