package nn

import (
	"math"

	"ibox/internal/sim"
)

// An LSTM layer uses the standard gate formulation
//
//	i = σ(Wx_i·x + Wh_i·h + b_i)    f = σ(Wx_f·x + Wh_f·h + b_f)
//	g = tanh(Wx_g·x + Wh_g·h + b_g) o = σ(Wx_o·x + Wh_o·h + b_o)
//	c' = f⊙c + i⊙g                  h' = o⊙tanh(c')
//
// with its weights in the packed layout of infer.go, the one layout both
// inference and training run on. This file is the training side:
// initialization, and back-propagation through time over the packed
// kernel, with float64 gradients accumulated into a packed buffer of the
// same shape as the float32 weights.

// NewLSTM builds a stack with Xavier-uniform weights, each draw rounded to
// float32: the first layer maps in→hidden, the rest hidden→hidden. The
// forget-gate bias starts at 1 (the standard trick for gradient flow over
// long sequences).
func NewLSTM(in, hidden, layers int, seed int64) *InferModel {
	if layers < 1 {
		panic("nn: LSTM needs at least one layer")
	}
	im := &InferModel{maxH: hidden}
	for li := 0; li < layers; li++ {
		if li > 0 {
			in = hidden
		}
		l := newInferLayer(in, hidden)
		// Values are drawn in artifact order (Wx, then Wh, row-major).
		rng := sim.NewRand(seed+int64(li)*31, 202)
		for t, bound := range []float64{math.Sqrt(6.0 / float64(in+hidden)), math.Sqrt(6.0 / float64(2*hidden))} {
			vals := make([]float64, l.tensorLen(t))
			for i := range vals {
				vals[i] = (rng.Float64()*2 - 1) * bound
			}
			l.scatter(t, 0, vals)
		}
		ones := make([]float64, hidden)
		for j := range ones {
			ones[j] = 1
		}
		l.scatter(tensorB, hidden, ones) // rows H…2H−1: the forget gate
		im.Layers = append(im.Layers, l)
	}
	return im
}

// bptt is a model's training workspace, reused across sequences: every
// buffer grows to the longest sequence seen and stays, so training a
// sequence allocates nothing once the workspace has grown.
type bptt struct {
	// acts[l] holds layer l's activations, 7·H per timestep: the gates
	// (4 per unit, unit-major i|f|g|o, as the packed kernel computes
	// their pre-activations), then c, tanh(c) and h.
	acts [][]float64
	zero []float64 // max-hidden zeros: every layer's h and c before step 0
	dOut []float64 // loss gradient into the top layer's h, T×H

	// Per-layer gradients flowing backward in time, and the per-step
	// scratch: the gradient into h, and the gate pre-activation
	// gradients (unit-major, the packed layout's quads).
	dh, dhNext, dc, dx [][]float64
	dht, dPre          []float64
}

// grow sizes the workspace for a T-step sequence through im.
func (w *bptt) grow(im *InferModel, T int) {
	L := len(im.Layers)
	if len(w.acts) != L {
		*w = bptt{acts: make([][]float64, L), dh: make([][]float64, L), dhNext: make([][]float64, L),
			dc: make([][]float64, L), dx: make([][]float64, L),
			zero: make([]float64, im.maxH), dht: make([]float64, im.maxH), dPre: make([]float64, 4*im.maxH)}
		for li, l := range im.Layers {
			w.dh[li] = make([]float64, l.Hidden)
			w.dhNext[li] = make([]float64, l.Hidden)
			w.dc[li] = make([]float64, l.Hidden)
			if li > 0 {
				w.dx[li] = make([]float64, l.In)
			}
		}
	}
	for li, l := range im.Layers {
		if n := T * 7 * l.Hidden; len(w.acts[li]) < n {
			w.acts[li] = make([]float64, n)
		}
	}
	if n := T * im.maxH; len(w.dOut) < n {
		w.dOut = make([]float64, n)
	}
}

// step returns layer li's activations at step t (gates, c, tanh c, h),
// and its c and h from the step before (zeros at t = 0).
func (w *bptt) step(li, H, t int) (gates, c, tanhC, h, cPrev, hPrev []float64) {
	a := w.acts[li][t*7*H : (t+1)*7*H]
	gates, c, tanhC, h = a[:4*H], a[4*H:5*H], a[5*H:6*H], a[6*H:]
	cPrev, hPrev = w.zero[:H], w.zero[:H]
	if t > 0 {
		p := w.acts[li][(t-1)*7*H : t*7*H]
		cPrev, hPrev = p[4*H:5*H], p[6*H:]
	}
	return
}

// input returns layer li's input at step t: the sequence's own row for
// layer 0, the hidden output of the layer below otherwise.
func (w *bptt) input(im *InferModel, xs [][]float64, li, t int) []float64 {
	if li == 0 {
		return xs[t]
	}
	_, _, _, h, _, _ := w.step(li-1, im.Layers[li-1].Hidden, t)
	return h
}

// top returns the top layer's hidden output at step t.
func (w *bptt) top(im *InferModel, t int) []float64 {
	L := len(im.Layers)
	_, _, _, h, _, _ := w.step(L-1, im.Layers[L-1].Hidden, t)
	return h
}

// forward runs the stack over xs from a zero state, layer by layer,
// keeping every step's activations for backward. It runs the inference
// kernels (gatePre, activate), so the forward pass is the inference
// forward bit for bit.
func (w *bptt) forward(im *InferModel, xs [][]float64) {
	w.grow(im, len(xs))
	for li, l := range im.Layers {
		H := l.Hidden
		for t := range xs {
			gates, c, tanhC, h, cPrev, hPrev := w.step(li, H, t)
			l.gatePre(gates, hPrev, w.input(im, xs, li, t), nil, 0, 0, l.Hidden)
			activate(gates, cPrev, c, tanhC, h)
		}
	}
}

// backward back-propagates through time from the loss gradients in
// w.dOut, accumulating the stack's weight gradients. It computes no
// gradient for the inputs xs: nobody reads it.
func (w *bptt) backward(im *InferModel, xs [][]float64) {
	for li, l := range im.Layers {
		l.w.grad() // the first backward pass allocates the gradients
		clear(w.dh[li])
		clear(w.dc[li])
	}
	Htop := im.Layers[len(im.Layers)-1].Hidden
	for t := len(xs) - 1; t >= 0; t-- {
		// Gradient entering the top layer's h at step t: from the loss plus
		// recurrent flow.
		carry := w.dOut[t*Htop : (t+1)*Htop]
		for li := len(im.Layers) - 1; li >= 0; li-- {
			l := im.Layers[li]
			H := l.Hidden
			gates, _, tanhC, _, cPrev, hPrev := w.step(li, H, t)
			dh, dc, dPre := w.dht[:H], w.dc[li], w.dPre[:4*H]
			for k := range dh {
				dh[k] = w.dh[li][k] + carry[k]
			}
			for j := 0; j < H; j++ {
				q := gates[4*j : 4*j+4 : 4*j+4]
				do := dh[j] * tanhC[j]
				dcj := dc[j] + dh[j]*q[3]*(1-tanhC[j]*tanhC[j])
				di := dcj * q[2]
				df := dcj * cPrev[j]
				dg := dcj * q[0]
				dc[j] = dcj * q[1]
				dPre[4*j] = di * q[0] * (1 - q[0])
				dPre[4*j+1] = df * q[1] * (1 - q[1])
				dPre[4*j+2] = dg * (1 - q[2]*q[2])
				dPre[4*j+3] = do * q[3] * (1 - q[3])
			}
			l.gradAdd(dPre, w.input(im, xs, li, t), hPrev)
			l.inputGrad(dPre, w.dx[li], 4)            // into x; none at layer 0
			l.inputGrad(dPre, w.dhNext[li], 4+4*l.In) // into h at t−1
			w.dh[li], w.dhNext[li] = w.dhNext[li], w.dh[li]
			carry = w.dx[li] // the gradient into the layer below's h
		}
	}
}

// gradAdd accumulates one step's weight gradients: for unit j, the gate
// gradient quad dq = dPre[4j:4j+4] onto the unit's bias quad, and x[k]·dq
// (hPrev[k]·dq) onto input (recurrent) column k's quad. The SIMD kernel
// covers whole 4-unit groups when available, the scalar loop the rest;
// every element takes the same single multiply and add either way.
func (l *InferLayer) gradAdd(dPre, x, hPrev []float64) {
	j0 := 0
	if groups := l.Hidden / 4; haveSIMD && groups > 0 {
		layerGradSIMD(&l.w.Grad[0], &x[0], &hPrev[0], &dPre[0],
			int64(l.In), int64(l.Hidden), int64(groups), int64(l.blkStride*8))
		j0 = groups * 4
	}
	bs := l.blkStride
	for j := j0; j < l.Hidden; j++ {
		d0, d1, d2, d3 := dPre[4*j], dPre[4*j+1], dPre[4*j+2], dPre[4*j+3]
		blk := l.w.Grad[j*bs : (j+1)*bs]
		blk[0] += d0
		blk[1] += d1
		blk[2] += d2
		blk[3] += d3
		for _, v := range [2][]float64{x, hPrev} {
			for k, vk := range v {
				q := blk[4+4*k : 8+4*k : 8+4*k]
				q[0] += d0 * vk
				q[1] += d1 * vk
				q[2] += d2 * vk
				q[3] += d3 * vk
			}
			blk = blk[4*len(v):]
		}
	}
}

// inputGrad sets dst[k] = Σ_r dPre(r)·W(r)[k] over the columns that start
// at weight offset off of each unit block (4: the input columns; 4+4·In:
// the recurrent ones): the gradient into a step's input or previous h.
// The sum takes the gate rows in the blocked order r = g·Hidden + j
// (gate-major, so reading the packed weights strided), the order these
// sums have always had, each term a float64 product with the widened
// weight; a row whose gradient is zero adds nothing and is skipped.
func (l *InferLayer) inputGrad(dPre, dst []float64, off int) {
	clear(dst)
	if len(dst) == 0 {
		return
	}
	bs := l.blkStride
	if haveSIMD {
		inputGradSIMD(&l.w.w32[off], &dPre[0], &dst[0], int64(len(dst)), int64(l.Hidden), int64(4*bs))
		return
	}
	for g := 0; g < 4; g++ {
		for j := 0; j < l.Hidden; j++ {
			d := dPre[4*j+g]
			if d == 0 {
				continue
			}
			col := l.w.w32[j*bs+off+g:] // column k's gate-g weight at col[4k]
			for k := range dst {
				dst[k] += d * float64(col[4*k])
			}
		}
	}
}
