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

	// dqs[l] holds layer l's gate pre-activation gradients, 4·H per
	// timestep (unit-major, the packed layout's quads): the recursion
	// writes them, and the weight gradient, deferred until it ends,
	// reads them (weightGrad).
	dqs [][]float64
	// Per layer, the gradient flowing back in time into c, and two
	// In+H buffers that take turns holding [into x | into h at t−1]:
	// the step that reads one's h part writes the other.
	dc, in, inNext [][]float64
	dht            []float64 // per-step scratch: the gradient into h
	// img[l] is layer l's transposed weight image (transposeInto),
	// rebuilt from the live weights at every backward the SIMD backend
	// runs; vs holds a block of steps' weight-gradient input rows.
	img [][]float32
	vs  []float64
}

// gradBlock is how many steps the deferred weight gradient accumulates
// per pass over a layer's gradient: enough that the gradient streams
// through memory once per block instead of once per step, few enough
// that a block's input rows stay in L1 at paper scale (32 × 96 bytes
// per column tile).
const gradBlock = 32

// grow sizes the workspace for a T-step sequence through im.
func (w *bptt) grow(im *InferModel, T int) {
	L := len(im.Layers)
	if len(w.acts) != L {
		*w = bptt{acts: make([][]float64, L), dqs: make([][]float64, L), dc: make([][]float64, L),
			in: make([][]float64, L), inNext: make([][]float64, L), img: make([][]float32, L),
			zero: make([]float64, im.maxH), dht: make([]float64, im.maxH)}
		maxN := 0
		for li, l := range im.Layers {
			w.dc[li] = make([]float64, l.Hidden)
			w.in[li] = make([]float64, l.In+l.Hidden)
			w.inNext[li] = make([]float64, l.In+l.Hidden)
			maxN = max(maxN, 1+l.In+l.Hidden)
		}
		w.vs = make([]float64, gradBlock*maxN)
	}
	for li, l := range im.Layers {
		if n := T * 7 * l.Hidden; len(w.acts[li]) < n {
			w.acts[li] = make([]float64, n)
		}
		if n := T * 4 * l.Hidden; len(w.dqs[li]) < n {
			w.dqs[li] = make([]float64, n)
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
//
// The recursion runs step-major, from the last step down, and per layer
// step computes only what the step before needs: the gate gradients
// (gateGrad), and from them the gradient into the layer's input and
// previous h (inputGrads). The weight gradient, Σ_t dq_t·[1; x_t;
// h_{t−1}]ᵀ, needs nothing the recursion does not keep, so it runs
// after it (weightGrad), taking every element's terms in the same
// last-to-first order.
func (w *bptt) backward(im *InferModel, xs [][]float64) {
	for li, l := range im.Layers {
		l.w.grad() // the first backward pass allocates the gradients
		clear(w.in[li])
		clear(w.dc[li])
		if haveSIMD {
			if n := 4 * l.Hidden * (l.In + l.Hidden); len(w.img[li]) < n {
				w.img[li] = make([]float32, n)
			}
			l.transposeInto(w.img[li])
		}
	}
	Htop := im.Layers[len(im.Layers)-1].Hidden
	for t := len(xs) - 1; t >= 0; t-- {
		// Gradient entering the top layer's h at step t: from the loss plus
		// recurrent flow.
		carry := w.dOut[t*Htop : (t+1)*Htop]
		for li := len(im.Layers) - 1; li >= 0; li-- {
			l := im.Layers[li]
			H := l.Hidden
			gates, _, tanhC, _, cPrev, _ := w.step(li, H, t)
			dq := w.dqs[li][t*4*H : (t+1)*4*H]
			gateGrad(gates, tanhC, cPrev, w.in[li][l.In:], carry, w.dc[li], dq, w.dht[:H])
			next := w.inNext[li]
			l.inputGrads(dq, next, w.img[li], li > 0) // into x (none at layer 0) and into h at t−1
			w.in[li], w.inNext[li] = next, w.in[li]
			carry = next[:l.In] // the gradient into the layer below's h
		}
	}
	for li := range im.Layers {
		w.weightGrad(im, xs, li)
	}
}

// gateGrad computes one layer step's gate pre-activation gradients into
// dq (unit-major quads) from the activated gates and tanh c of the step,
// c of the step before, and the gradient into h (dhRec, from the step
// after, plus carry, from the loss or the layer above), and carries the
// gradient into c back one step in place. The SIMD kernel covers whole
// 4-unit groups when available, the scalar loop the rest; each lane
// runs the loop's operations in its operand order, so NaN payloads
// agree too (see gateGradSIMD).
func gateGrad(gates, tanhC, cPrev, dhRec, carry, dc, dq, dh []float64) {
	j0 := 0
	if groups := len(dc) / 4; haveSIMD && groups > 0 {
		gateGradSIMD(&gates[0], &tanhC[0], &cPrev[0], &dhRec[0], &carry[0], &dc[0], &dq[0], int64(groups))
		j0 = groups * 4
	}
	for k := j0; k < len(dh); k++ {
		dh[k] = dhRec[k] + carry[k]
	}
	for j := j0; j < len(dh); j++ {
		q := gates[4*j : 4*j+4 : 4*j+4]
		do := dh[j] * tanhC[j]
		dcj := dc[j] + dh[j]*q[3]*(1-tanhC[j]*tanhC[j])
		di := dcj * q[2]
		df := dcj * cPrev[j]
		dg := dcj * q[0]
		dc[j] = dcj * q[1]
		dq[4*j] = di * q[0] * (1 - q[0])
		dq[4*j+1] = df * q[1] * (1 - q[1])
		dq[4*j+2] = dg * (1 - q[2]*q[2])
		dq[4*j+3] = do * q[3] * (1 - q[3])
	}
}

// weightGrad adds layer li's weight gradients over the whole sequence:
// for every step t, from the last down, the gate-gradient quad dq of
// each unit times each element of the step's input row [1; x_t;
// h_{t−1}] onto that column's quad of the unit's block (the leading 1
// is the bias column: d·1 = d exactly). Blocks of gradBlock steps run
// from the last block down, so each element takes its terms in the
// order the per-step accumulation took them.
func (w *bptt) weightGrad(im *InferModel, xs [][]float64, li int) {
	l := im.Layers[li]
	H, n := l.Hidden, 1+l.In+l.Hidden
	for t1 := len(xs); t1 > 0; t1 -= gradBlock {
		t0 := max(0, t1-gradBlock)
		vs := w.vs[:(t1-t0)*n]
		for t := t0; t < t1; t++ {
			v := vs[(t-t0)*n : (t-t0+1)*n]
			v[0] = 1
			copy(v[1:], w.input(im, xs, li, t))
			if t == 0 {
				clear(v[1+l.In:])
			} else {
				copy(v[1+l.In:], w.acts[li][(t-1)*7*H+6*H:t*7*H]) // h at t−1
			}
		}
		l.gradAcc(w.dqs[li][t0*4*H:t1*4*H], vs, t1-t0)
	}
}

// gradAcc adds Σ_t dq_t[4j+g]·v_t[c] onto gradient element (j, g, c) —
// the packed layout's offset j·blkStride + 4c + g — for every unit j,
// gate g and column c, over steps t = steps−1 down to 0 of the rows dq
// (4·Hidden per step) and v (blkStride/4 per step). Each term is one
// multiply, dq first, and one add, product first.
func (l *InferLayer) gradAcc(dq, v []float64, steps int) {
	H, n, grad := l.Hidden, l.blkStride/4, l.w.Grad
	if haveSIMD {
		gradAccSIMD(&grad[0], &dq[0], &v[0], int64(H), int64(n), int64(steps))
		return
	}
	// Columns outer, units inner: vc is then the loop invariant, which go1.24
	// compiles as the multiply's second operand, as the kernel has it.
	bs := l.blkStride
	for t := steps - 1; t >= 0; t-- {
		dqt := dq[t*4*H : (t+1)*4*H]
		for c, vc := range v[t*n : (t+1)*n] {
			for j := 0; j < H; j++ {
				d := dqt[4*j : 4*j+4 : 4*j+4]
				q := grad[j*bs+4*c : j*bs+4*c+4 : j*bs+4*c+4]
				q[0] = d[0]*vc + q[0]
				q[1] = d[1]*vc + q[1]
				q[2] = d[2]*vc + q[2]
				q[3] = d[3]*vc + q[3]
			}
		}
	}
}

// transposeInto copies the layer's input and recurrent columns into img
// gate-major: row r = g·Hidden + j holds gate g of unit j's In+Hidden
// weights contiguously, img[r·(In+Hidden) + k] = the packed w32[j·
// blkStride + 4 + 4k + g]. It is training-workspace scratch, like the
// gradient: rebuilt from the live weights at every backward, read only
// by inputGradTSIMD, never by inference and never persisted.
func (l *InferLayer) transposeInto(img []float32) {
	H, n, bs := l.Hidden, l.In+l.Hidden, l.blkStride
	for j := 0; j < H; j++ {
		cols := l.w.w32[j*bs+4 : (j+1)*bs]
		r0, r1 := img[j*n:(j+1)*n], img[(H+j)*n:(H+j+1)*n]
		r2, r3 := img[(2*H+j)*n:(2*H+j+1)*n], img[(3*H+j)*n:(3*H+j+1)*n]
		for k := range r0 {
			q := cols[4*k : 4*k+4 : 4*k+4]
			r0[k], r1[k], r2[k], r3[k] = q[0], q[1], q[2], q[3]
		}
	}
}

// inputGrads sets dst[l.In:] to the gradient into the step's previous h
// and, when withX, dst[:l.In] to the gradient into its input: dst[k] =
// Σ_r dq(r)·W(r)[k] over the In+Hidden columns. With the SIMD backend
// it runs on the transposed image img, else the scalar loop runs on the
// packed weights; the sums are the same either way (see inputGrad).
func (l *InferLayer) inputGrads(dq, dst []float64, img []float32, withX bool) {
	c0 := l.In
	if withX {
		c0 = 0
	}
	if haveSIMD {
		n := l.In + l.Hidden
		inputGradTSIMD(&img[c0], &dq[0], &dst[c0], int64(n-c0), int64(4*n), int64(l.Hidden))
		return
	}
	l.inputGrad(dq, dst[c0:l.In], 4)
	l.inputGrad(dq, dst[l.In:], 4+4*l.In)
}

// inputGrad sets dst[k] = Σ_r dq(r)·W(r)[k] over the columns that start
// at weight offset off of each unit block (4: the input columns; 4+4·In:
// the recurrent ones): the gradient into a step's input or previous h.
// The sum takes the gate rows in the blocked order r = g·Hidden + j
// (gate-major, so reading the packed weights strided), the order these
// sums have always had, each term a float64 product of the widened
// weight and the row's gradient, added to the partial sum as the add's
// first operand; a row whose gradient is ±0 adds nothing and is skipped.
func (l *InferLayer) inputGrad(dq, dst []float64, off int) {
	clear(dst)
	bs := l.blkStride
	for g := 0; g < 4; g++ {
		for j := 0; j < l.Hidden; j++ {
			d := dq[4*j+g]
			if d == 0 {
				continue
			}
			col := l.w.w32[j*bs+off+g:] // column k's gate-g weight at col[4k]
			for k := range dst {
				dst[k] = float64(col[4*k])*d + dst[k]
			}
		}
	}
}
