package nn

import "math"

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
func gaussianNLL(out []float64, y float64) (loss float64, dOut [2]float64) {
	g := gaussianFromHead(out)
	z := (y - g.Mu) / g.Sigma
	loss = 0.5*math.Log(2*math.Pi) + math.Log(g.Sigma) + 0.5*z*z
	dMu := -(y - g.Mu) / (g.Sigma * g.Sigma)
	dLogSigma := 1 - z*z
	// Clamp regions have zero gradient through logSigma.
	if out[1] <= logSigmaMin || out[1] >= logSigmaMax {
		dLogSigma = 0
	}
	return loss, [2]float64{dMu, dLogSigma}
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
// The LSTM weights exist once, as float32 in the packed layout (see
// infer.go):
// inference steps and training both run on them, and a model read from an
// artifact is decoded straight into them. Gradients and the training
// workspace appear with the first TrainSequence.
type SequenceModel struct {
	Kind HeadKind
	LSTM *InferModel
	Head *Dense

	ws *bptt // training workspace, reused across sequences
}

// Infer returns the LSTM stack inference runs on: the model's live
// weights, not a copy.
func (m *SequenceModel) Infer() *InferModel { return m.LSTM }

// Arch returns the network's architecture: layer 0's input width, the
// hidden width and the layer count.
func (m *SequenceModel) Arch() (in, hidden, layers int) { return m.LSTM.Arch() }

// Finite reports whether every weight is finite. Order does not matter
// here, so the packed buffers are read as they lie.
func (m *SequenceModel) Finite() bool {
	for _, p := range m.Params() {
		for _, v := range p.W {
			if math.Float64bits(v)&expMask == expMask {
				return false
			}
		}
		for _, v := range p.w32 {
			if math.Float64bits(float64(v))&expMask == expMask {
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

// Params returns every learnable parameter: one packed Param per LSTM
// layer (weights and gradient in the layout of infer.go), then the head's.
// They are the live weights, so an edit reaches the next inference step.
func (m *SequenceModel) Params() []*Param {
	var ps []*Param
	for _, l := range m.LSTM.Layers {
		ps = append(ps, &l.w)
	}
	return append(ps, m.Head.Params()...)
}

// NumParams reports the total number of scalar parameters, from the
// architecture alone.
func (m *SequenceModel) NumParams() int {
	in, hidden, layers := m.Arch()
	return int(Header{Kind: m.Kind, In: in, Hidden: hidden, Layers: layers}.weightCount())
}

// ReserveSteps sizes the training workspace for sequences of up to T
// steps, so that training on sequences of mixed lengths builds it once
// instead of again at each new longest sequence.
func (m *SequenceModel) ReserveSteps(T int) {
	if m.ws == nil {
		m.ws = &bptt{}
	}
	m.ws.grow(m.LSTM, T)
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
	if m.ws == nil {
		m.ws = &bptt{}
	}
	w := m.ws
	w.forward(m.LSTM, xs)
	H := m.Head.In
	dOut := w.dOut[:len(xs)*H]
	clear(dOut)
	var out [2]float64 // the head's output; Head.Out ≤ 2
	total := 0.0
	counted := 0
	for t := range xs {
		if mask != nil && !mask[t] {
			continue
		}
		h, headOut := w.top(m.LSTM, t), out[:m.Head.Out]
		m.Head.ForwardInto(h, headOut)
		var loss float64
		var dHead [2]float64
		if m.Kind == GaussianHead {
			loss, dHead = gaussianNLL(headOut, ys[t])
		} else {
			loss, dHead[0] = bceLoss(headOut[0], ys[t])
		}
		total += loss
		counted++
		m.Head.BackwardInto(h, dHead[:m.Head.Out], dOut[t*H:(t+1)*H])
	}
	if counted == 0 {
		return math.NaN()
	}
	// Normalize so the step size is invariant to sequence length.
	scale := 1 / float64(counted)
	for i := range dOut {
		dOut[i] *= scale
	}
	// The head gradients were accumulated unscaled; rescale them too.
	for _, p := range m.Head.Params() {
		for i := range p.Grad {
			p.Grad[i] *= scale
		}
	}
	w.backward(m.LSTM, xs)
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

// Predictor is a stateful inference handle over a trained BinaryHead
// SequenceModel: it steps the packed kernel (see infer.go) and maps the
// head to an event probability, allocation-free. A Predictor binds the
// model's live weights: a step taken after further training sees the
// update.
type Predictor struct {
	model *SequenceModel
	st    *InferState
	head  []float64
}

// NewPredictor returns an inference handle with zero state.
func (m *SequenceModel) NewPredictor() *Predictor {
	return &Predictor{model: m, st: m.LSTM.NewState(), head: make([]float64, m.Head.Out)}
}

// StepProb advances one timestep and returns the predicted event
// probability. Valid only for BinaryHead models. Allocation-free.
func (p *Predictor) StepProb(x []float64) float64 {
	h := p.model.LSTM.StepInto(p.st, x)
	p.model.Head.ForwardInto(h, p.head)
	return sigmoid(p.head[0])
}

// HeadGaussian maps a top-layer hidden vector (e.g. InferState.Top)
// through the Gaussian head without allocating; scratch must have
// length Head.Out.
func (m *SequenceModel) HeadGaussian(h, scratch []float64) GaussianOutput {
	m.Head.ForwardInto(h, scratch)
	return gaussianFromHead(scratch)
}
