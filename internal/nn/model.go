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
type SequenceModel struct {
	Kind HeadKind
	LSTM *LSTM
	Head *Dense

	// Lazily compiled inference kernels (see infer.go). Guarded by mu;
	// invalidated whenever TrainSequence touches the weights so a kernel
	// never serves stale parameters.
	mu    sync.Mutex
	infer *InferModel
	quant *InferModel
}

// Infer returns the compiled float inference kernel for the current
// weights, compiling it on first use. Safe for concurrent callers.
func (m *SequenceModel) Infer() *InferModel {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.infer == nil {
		m.infer = m.LSTM.Compile()
	}
	return m.infer
}

// InferQuantized is Infer for the opt-in int8 kernel. Unlike every other
// inference path it is NOT bitwise-identical to LSTM.Step — see
// infer_int8.go for the accuracy caveats.
func (m *SequenceModel) InferQuantized() *InferModel {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.quant == nil {
		m.quant = m.LSTM.CompileQuantized()
	}
	return m.quant
}

// invalidateKernels drops compiled kernels after a weight update.
func (m *SequenceModel) invalidateKernels() {
	m.mu.Lock()
	m.infer = nil
	m.quant = nil
	m.mu.Unlock()
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

// Params returns every learnable parameter.
func (m *SequenceModel) Params() []*Param {
	return append(m.LSTM.Params(), m.Head.Params()...)
}

// NumParams reports the total number of scalar parameters.
func (m *SequenceModel) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += len(p.W)
	}
	return n
}

// TrainSequence accumulates gradients for one (xs, ys) sequence and
// returns the mean per-step loss. mask[t]=false skips step t's loss (e.g.
// lost packets whose delay is unobserved); a nil mask trains on every
// step. Call opt.Step() afterwards to apply the update.
func (m *SequenceModel) TrainSequence(xs [][]float64, ys []float64, mask []bool) float64 {
	if len(xs) == 0 || len(xs) != len(ys) {
		return math.NaN()
	}
	// The optimizer step that follows this call will change the weights;
	// drop any compiled inference kernel now so the next Infer() sees them.
	m.invalidateKernels()
	outs, caches := m.LSTM.ForwardSequence(xs)
	dOut := make([][]float64, len(xs))
	total := 0.0
	counted := 0
	for t := range xs {
		dOut[t] = make([]float64, m.LSTM.Hidden())
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
	m.LSTM.BackwardSequence(caches, dOut)
	return total * scale
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

// NewPredictorQuantized is NewPredictor on the opt-in int8 kernel (not
// bitwise-identical; see infer_int8.go).
func (m *SequenceModel) NewPredictorQuantized() *Predictor {
	im := m.InferQuantized()
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
	return m.PredictSequenceOn(m.Infer(), xs)
}

// PredictSequenceOn is PredictSequence on a specific compiled kernel
// (e.g. InferQuantized for the opt-in int8 path).
func (m *SequenceModel) PredictSequenceOn(im *InferModel, xs [][]float64) []GaussianOutput {
	hs := im.Forward(xs)
	out := make([]GaussianOutput, len(xs))
	head := make([]float64, m.Head.Out)
	for t, h := range hs {
		m.Head.ForwardInto(h, head)
		out[t] = gaussianFromHead(head)
	}
	return out
}
