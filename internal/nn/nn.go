// Package nn is a from-scratch neural-network substrate (stdlib only) that
// provides exactly what iBoxML (§4) needs: multi-layer LSTMs trained by
// truncated back-propagation through time, dense output heads with a
// Gaussian negative-log-likelihood loss (the paper's N(w₁ᵀh, w₂ᵀh) delay
// distribution) or binary cross-entropy (the reordering predictor of
// §5.1), the Adam optimizer, and a standalone logistic-regression model
// (the paper's "lightweight and much faster linear" reordering predictor).
//
// Everything is deterministic given a seed, and all gradients are verified
// against finite differences in the package tests.
package nn

import (
	"math"

	"ibox/internal/sim"
)

// Param is one learnable tensor: its weights W and the gradient Grad that
// backward passes accumulate. Grad is nil until the first backward pass
// touches the tensor, so a model that is only ever run holds its weights
// alone; optimizer state lives in the optimizer (Adam), not here.
//
// An LSTM layer's packed blocks are the one exception to float64
// weights: they are stored as float32, in w32, and W is nil (see
// infer.go). Their gradient is float64 like every other.
type Param struct {
	W    []float64
	Grad []float64
	w32  []float32
	// layer is set when w32 and Grad are an LSTM layer's packed blocks.
	layer *InferLayer
}

func newParam(n int) *Param { return &Param{W: make([]float64, n)} }

// size returns the parameter's weight count.
func (p *Param) size() int {
	if p.layer != nil {
		return len(p.w32)
	}
	return len(p.W)
}

// grad returns the gradient buffer, allocating it on first use.
func (p *Param) grad() []float64 {
	if p.Grad == nil {
		p.Grad = make([]float64, p.size())
	}
	return p.Grad
}

// sumSquares adds Σ g² over the gradient to acc in artifact order — a
// packed layer tensor by tensor through runs — so the sum's bits do not
// depend on the layout.
func (p *Param) sumSquares(acc float64) float64 {
	if p.layer == nil || p.Grad == nil {
		for _, g := range p.Grad {
			acc += g * g
		}
		return acc
	}
	l := p.layer
	for t := 0; t < tensorsPerLayer; t++ {
		l.runs(t, 0, l.tensorLen(t), func(_, pos, cnt int) {
			for ; cnt > 0; cnt-- {
				acc += p.Grad[pos] * p.Grad[pos]
				pos += 4
			}
		})
	}
	return acc
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// Adam is the Adam optimizer (Kingma & Ba 2015) over a set of parameters.
// It owns the two moment estimates per parameter: they exist while the
// optimizer does and are freed with it.
type Adam struct {
	LR       float64
	Beta1    float64
	Beta2    float64
	Eps      float64
	ClipNorm float64 // global gradient-norm clip; 0 disables
	t        int
	params   []*Param
	m, v     [][]float64 // first and second moments, one pair per param
}

// NewAdam returns an optimizer over params with standard betas.
func NewAdam(lr float64, params []*Param) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, ClipNorm: 5, params: params,
		m: make([][]float64, len(params)), v: make([][]float64, len(params))}
	for i, p := range params {
		a.m[i] = make([]float64, p.size())
		a.v[i] = make([]float64, p.size())
	}
	return a
}

// ZeroGrad clears every parameter's accumulated gradient without applying
// it: how a training loop discards a sequence it skips.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}

// Step applies one update from the accumulated gradients, then clears
// them. It returns the global (pre-clip) L2 gradient norm, which training
// loops record as a divergence diagnostic; callers that don't need it can
// ignore the value. A parameter no backward pass has reached has no Grad
// and zero moments, so it is left exactly as a zero gradient would leave
// it: unchanged. The update is float64 arithmetic; an LSTM layer's
// float32 weights take its result rounded once, the one place training
// rounds.
func (a *Adam) Step() float64 {
	a.t++
	norm := 0.0
	for _, p := range a.params {
		norm = p.sumSquares(norm)
	}
	norm = math.Sqrt(norm)
	if a.ClipNorm > 0 && norm > a.ClipNorm {
		scale := a.ClipNorm / norm
		for _, p := range a.params {
			for i := range p.Grad {
				p.Grad[i] *= scale
			}
		}
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for pi, p := range a.params {
		if p.layer != nil {
			adamUpdate(a, p.w32, p.Grad, a.m[pi], a.v[pi], bc1, bc2)
		} else {
			adamUpdate(a, p.W, p.Grad, a.m[pi], a.v[pi], bc1, bc2)
		}
		p.ZeroGrad()
	}
	return norm
}

// adamUpdate applies one Adam update from grad and the moments m, v to w:
// w − lr·m̂/(√v̂ + ε) in float64, converted once to w's element type.
func adamUpdate[T float32 | float64](a *Adam, w []T, grad, m, v []float64, bc1, bc2 float64) {
	for i, g := range grad {
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
		mh := m[i] / bc1
		vh := v[i] / bc2
		w[i] = T(float64(w[i]) - a.LR*mh/(math.Sqrt(vh)+a.Eps))
	}
}

// Dense is a fully connected layer y = W·x + b.
type Dense struct {
	In, Out int
	W       *Param // Out×In, row-major
	B       *Param // Out
}

// newDense allocates a dense layer with all-zero weights.
func newDense(in, out int) *Dense {
	return &Dense{In: in, Out: out, W: newParam(in * out), B: newParam(out)}
}

// NewDense returns a dense layer with Xavier-uniform initialization.
func NewDense(in, out int, seed int64) *Dense {
	d := newDense(in, out)
	rng := sim.NewRand(seed, 101)
	bound := math.Sqrt(6.0 / float64(in+out))
	for i := range d.W.W {
		d.W.W[i] = (rng.Float64()*2 - 1) * bound
	}
	return d
}

// ForwardInto computes the layer output for input x into dst (length Out).
func (d *Dense) ForwardInto(x, dst []float64) {
	for o := 0; o < d.Out; o++ {
		s := d.B.W[o]
		row := d.W.W[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			s += row[i] * xi
		}
		dst[o] = s
	}
}

// BackwardInto accumulates parameter gradients for output gradient dy at
// input x, and writes the gradient with respect to x into dx (length In).
func (d *Dense) BackwardInto(x, dy, dx []float64) {
	clear(dx)
	bg, wg := d.B.grad(), d.W.grad()
	for o := 0; o < d.Out; o++ {
		g := dy[o]
		bg[o] += g
		row := d.W.W[o*d.In : (o+1)*d.In]
		grow := wg[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			grow[i] += g * xi
			dx[i] += g * row[i]
		}
	}
}

// Params returns the layer's learnable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

func sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}
