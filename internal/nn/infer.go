package nn

import "math"

// Inference-specialized LSTM kernels. Training needs per-step caches and
// the Wx/Wh split for BPTT; inference needs neither, so Compile repacks a
// trained stack once into a layout built for the per-step read pattern and
// the kernels below run on it allocation-free.
//
// Packed layout (InferLayer.packed): one block per hidden unit, holding
// the unit's four gate rows (i, f, g, o) *interleaved by column*:
//
//	unit j block:  [ b_i  b_f  b_g  b_o ]                     biases
//	               [ Wx_i[0]  Wx_f[0]  Wx_g[0]  Wx_o[0] ]     input col 0
//	               [ ...                               ]      ... col k
//	               [ Wh_i[0]  Wh_f[0]  Wh_g[0]  Wh_o[0] ]     recurrent col 0
//	               [ ...                               ]      ... col k
//
// A forward step walks this buffer front to back exactly once, so the
// whole weight set streams through cache linearly per step, and each
// column k yields the four gates' weights as one contiguous 32-byte
// quad: the natural shape both for four independent scalar accumulator
// chains (≈4× ILP on the latency-bound dot products) and for one 4-lane
// SIMD vector per unit (see infer_kernel_amd64.s — lane g runs gate row
// g's chain with separate multiply and add roundings, so SIMD changes
// nothing numerically).
//
// Correctness contract: per gate row the floating-point operation order is
// exactly LSTMLayer.step's — bias first, then input terms in ascending k,
// then recurrent terms in ascending k — so every kernel in this file is
// bitwise-identical to the training-path forward step.
//
// Window pre-projection: when an input window is fully known up front
// (open-loop replay, sequence forward), the input-and-bias half
// b + Wx·x_t of every row is a GEMM over the whole window. preProject
// computes it for all T timesteps in a register-blocked pass (weights
// stream once per four timesteps instead of once per step), and the
// sequential pass resumes each row's accumulator from the stored partial
// sum — the addition sequence per row is unchanged, so bitwise identity
// holds. Closed-loop replay knows a *prefix* of each input row up front
// (the d_{t−1} feedback column and anything after it arrive at step
// time); preProject with upto < In pre-projects just that prefix and
// the step adds the remaining input terms, still in ascending k.

// InferLayer is one LSTM layer repacked for inference.
type InferLayer struct {
	In, Hidden int
	blkStride  int       // floats per unit block: 4*(1 + In + Hidden)
	packed     []float64 // Hidden unit blocks (see file comment)
}

// InferModel is a compiled inference kernel for an LSTM stack.
type InferModel struct {
	Layers []*InferLayer
	maxH   int
}

// Compile repacks the stack's weights into the fused inference layout.
// Call it once after training (or loading) completes; later weight
// updates are not reflected in the compiled kernel.
func (m *LSTM) Compile() *InferModel {
	im := &InferModel{}
	for _, l := range m.Layers {
		im.Layers = append(im.Layers, compileLayer(l))
		if l.Hidden > im.maxH {
			im.maxH = l.Hidden
		}
	}
	return im
}

func compileLayer(l *LSTMLayer) *InferLayer {
	In, H := l.In, l.Hidden
	bs := 4 * (1 + In + H)
	il := &InferLayer{In: In, Hidden: H, blkStride: bs, packed: make([]float64, H*bs)}
	for j := 0; j < H; j++ {
		blk := il.packed[j*bs : (j+1)*bs]
		for g := 0; g < 4; g++ {
			src := g*H + j // row index in the i|f|g|o blocked training layout
			blk[g] = l.B.W[src]
			for k := 0; k < In; k++ {
				blk[4+k*4+g] = l.Wx.W[src*In+k]
			}
			for k := 0; k < H; k++ {
				blk[4+In*4+k*4+g] = l.Wh.W[src*H+k]
			}
		}
	}
	return il
}

// Arch returns the compiled stack's architecture: layer 0's input width,
// the (uniform) hidden width, and the layer count.
func (im *InferModel) Arch() (in, hidden, layers int) {
	if len(im.Layers) == 0 {
		return 0, 0, 0
	}
	return im.Layers[0].In, im.Layers[0].Hidden, len(im.Layers)
}

// SameArch reports whether two compiled kernels can advance side by side
// in one lane batch: identical per-layer (In, Hidden) shapes. Weight
// values are free to differ — that is the whole point of
// cross-checkpoint lane batching (StepBatchLanesInto).
func (im *InferModel) SameArch(o *InferModel) bool {
	if len(im.Layers) != len(o.Layers) {
		return false
	}
	for i, l := range im.Layers {
		if l.In != o.Layers[i].In || l.Hidden != o.Layers[i].Hidden {
			return false
		}
	}
	return true
}

// InferState is the recurrent state for a compiled kernel plus the
// scratch the zero-alloc step needs. States are cheap to reset and are
// meant to be reused across sequences; they must not be shared between
// goroutines.
type InferState struct {
	h, c []float64 // all layers' vectors, carved from one backing array
	off  []int     // layer l's h/c live at [off[l], off[l]+H_l)
	hNxt []float64 // ping-pong target: a step reads h and writes hNxt
	pre  []float64 // gate pre-activation scratch, 4*max(Hidden)
}

// NewState returns a zeroed state for the compiled stack.
func (im *InferModel) NewState() *InferState {
	total := 0
	off := make([]int, len(im.Layers))
	for l, il := range im.Layers {
		off[l] = total
		total += il.Hidden
	}
	return &InferState{
		h:    make([]float64, total),
		c:    make([]float64, total),
		hNxt: make([]float64, total),
		pre:  make([]float64, 4*im.maxH),
		off:  off,
	}
}

// Reset zeroes the recurrent state in place.
func (s *InferState) Reset() {
	for i := range s.h {
		s.h[i] = 0
		s.c[i] = 0
	}
}

// top returns the top layer's hidden vector.
func (s *InferState) top() []float64 {
	return s.h[s.off[len(s.off)-1]:]
}

// Top returns the top layer's current hidden vector (the output of the
// most recent step). The slice aliases the state; treat it as read-only
// and valid until the next step.
func (s *InferState) Top() []float64 { return s.top() }

// layer returns layer l's (h, c, hNext) slices.
func (s *InferState) layer(im *InferModel, l int) (h, c, hn []float64) {
	lo := s.off[l]
	hi := lo + im.Layers[l].Hidden
	return s.h[lo:hi], s.c[lo:hi], s.hNxt[lo:hi]
}

// swap makes the just-written hNext vectors current.
func (s *InferState) swap() { s.h, s.hNxt = s.hNxt, s.h }

// StepInto advances the state one timestep in place and returns the top
// layer's hidden vector (valid until the next StepInto on this state).
// It performs no allocation, and its result is bitwise-identical to
// LSTM.Step on the same weights and state trajectory.
func (im *InferModel) StepInto(st *InferState, x []float64) []float64 {
	im.stepLane(st, x, nil, 0)
	return st.top()
}

// stepLane advances one state one timestep through this stack — the
// shared inner body of StepInto and StepBatchLanesInto. pre/tailOff
// optionally carry the timestep's pre-projected layer-0 prefix (see
// PreProjectInput); pass (nil, 0) otherwise.
func (im *InferModel) stepLane(st *InferState, x, pre []float64, tailOff int) {
	in := x
	for li, l := range im.Layers {
		h, c, hn := st.layer(im, li)
		if li == 0 {
			l.step(h, c, hn, in, pre, tailOff, st.pre)
		} else {
			l.step(h, c, hn, in, nil, 0, st.pre)
		}
		in = hn
	}
	st.swap()
}

// step advances one layer: hNew and c are written from hPrev, c and
// input x. pre, when non-nil, holds this timestep's pre-projected partial
// row sums (unit-major 4-per-unit order, covering the bias and input
// columns k < tailOff); input terms k >= tailOff are taken from x. With
// pre == nil the accumulators start from the packed biases and tailOff
// must be 0. preAct is caller scratch of at least 4*Hidden floats. c is
// updated in place; hNew must not alias hPrev.
func (l *InferLayer) step(hPrev, c, hNew, x []float64, pre []float64, tailOff int, preAct []float64) {
	l.gatePre(preAct[:4*l.Hidden], hPrev, x, pre, tailOff)
	gateUpdate(preAct, c, hNew)
}

// gatePre computes every gate row's pre-activation into dst (unit-major,
// 4 per unit): the SIMD kernel covers whole 4-unit groups when available,
// the scalar loop the rest. Both run the identical per-row operation
// sequence.
func (l *InferLayer) gatePre(dst, hPrev, x, pre []float64, tailOff int) {
	j0 := 0
	if haveSIMD {
		if groups := l.Hidden / 4; groups > 0 {
			var preP *float64
			if pre != nil {
				preP = &pre[0]
			}
			hp := &hPrev[0]
			xp := hp // x is never read when tailOff == In (nil x allowed)
			if len(x) > 0 {
				xp = &x[0]
			}
			layerPreSIMD(&l.packed[0], xp, hp, preP, &dst[0],
				int64(l.In), int64(len(hPrev)), int64(groups), int64(tailOff), int64(l.blkStride*8))
			j0 = groups * 4
		}
	}
	l.gatePreScalar(dst, hPrev, x, pre, tailOff, j0)
}

// gatePreScalar is the portable gate pre-activation kernel, covering
// units [j0, Hidden). The four gate rows of a unit run as four
// independent accumulator chains off shared x/h loads.
func (l *InferLayer) gatePreScalar(dst, hPrev, x, pre []float64, tailOff, j0 int) {
	In, bs := l.In, l.blkStride
	for j := j0; j < l.Hidden; j++ {
		blk := l.packed[j*bs : (j+1)*bs]
		var ai, af, ag, ao float64
		if pre != nil {
			ai, af, ag, ao = pre[j*4], pre[j*4+1], pre[j*4+2], pre[j*4+3]
		} else {
			ai, af, ag, ao = blk[0], blk[1], blk[2], blk[3]
		}
		wx := blk[4 : 4+In*4]
		for k := tailOff; k < In; k++ {
			xv := x[k]
			ai += wx[k*4] * xv
			af += wx[k*4+1] * xv
			ag += wx[k*4+2] * xv
			ao += wx[k*4+3] * xv
		}
		wh := blk[4+In*4:]
		for k, hv := range hPrev {
			ai += wh[k*4] * hv
			af += wh[k*4+1] * hv
			ag += wh[k*4+2] * hv
			ao += wh[k*4+3] * hv
		}
		dst[j*4] = ai
		dst[j*4+1] = af
		dst[j*4+2] = ag
		dst[j*4+3] = ao
	}
}

// gateUpdate applies the LSTM nonlinearities to pre-activations laid out
// unit-major (4 per unit, i|f|g|o), updating c in place and writing the
// new hidden vector; len(c) units are consumed.
func gateUpdate(pre, c, hNew []float64) {
	for j := range c {
		ig := sigmoid(pre[j*4])
		fg := sigmoid(pre[j*4+1])
		gg := math.Tanh(pre[j*4+2])
		og := sigmoid(pre[j*4+3])
		cj := fg*c[j] + ig*gg
		c[j] = cj
		hNew[j] = og * math.Tanh(cj)
	}
}

// preProject computes, for every timestep t of a known window, each gate
// row's partial sum bias + Σ_{k<upto} Wx[row][k]·xs[t][k], blocked four
// timesteps wide so each weight is loaded once per four steps. dst is
// t-major with rows in the packed unit-major order:
// dst[t*4H + j*4 + g]. Rows resume from these partial sums via the step
// kernels with tailOff = upto; the per-row addition order (bias, then
// input terms ascending k) is exactly the direct step's.
func (l *InferLayer) preProject(dst []float64, xs [][]float64, upto int) {
	H, bs := l.Hidden, l.blkStride
	T := len(xs)
	rows := 4 * H
	for j := 0; j < H; j++ {
		blk := l.packed[j*bs : (j+1)*bs]
		for g := 0; g < 4; g++ {
			r := j*4 + g
			b := blk[g]
			var t int
			for t = 0; t+4 <= T; t += 4 {
				x0, x1, x2, x3 := xs[t], xs[t+1], xs[t+2], xs[t+3]
				a0, a1, a2, a3 := b, b, b, b
				for k := 0; k < upto; k++ {
					w := blk[4+k*4+g]
					a0 += w * x0[k]
					a1 += w * x1[k]
					a2 += w * x2[k]
					a3 += w * x3[k]
				}
				dst[t*rows+r] = a0
				dst[(t+1)*rows+r] = a1
				dst[(t+2)*rows+r] = a2
				dst[(t+3)*rows+r] = a3
			}
			for ; t < T; t++ {
				x := xs[t]
				a := b
				for k := 0; k < upto; k++ {
					a += blk[4+k*4+g] * x[k]
				}
				dst[t*rows+r] = a
			}
		}
	}
}

// InputRowsPerStep reports the per-timestep row count of a layer-0
// pre-projection buffer: 4 gate rows per hidden unit of the first layer.
func (im *InferModel) InputRowsPerStep() int { return 4 * im.Layers[0].Hidden }

// PreProjectInput fills dst (length len(xs)*InputRowsPerStep()) with the
// first layer's pre-projected partial row sums over input columns
// k < upto for every timestep: dst[t*rows+j*4+g] = bias + Σ_{k<upto}
// Wx[row]·xs[t][k]. Pass the result as StepBatchLanesInto's pres (sliced
// per timestep) with tailOff = upto; closed-loop callers use upto = the
// first feedback column, so only the unknown tail runs per step.
func (im *InferModel) PreProjectInput(dst []float64, xs [][]float64, upto int) {
	l0 := im.Layers[0]
	if upto < 0 || upto > l0.In {
		panic("nn: PreProjectInput column bound out of range")
	}
	l0.preProject(dst, xs, upto)
}

// Forward runs the stack over a fully known input window from a zero
// state and returns the top layer's hidden vector per timestep. It
// traverses layer-major — each layer's inputs (the window for layer 0,
// the full output sequence of the layer below otherwise) are known
// before its sequential pass starts — and picks the input-projection
// strategy per backend: per-step SIMD, or the whole-window blocked
// scalar pre-projection. Results are bitwise-identical to stepping the
// window through StepInto (and hence to LSTM.Step) either way.
func (im *InferModel) Forward(xs [][]float64) [][]float64 {
	T := len(xs)
	if T == 0 {
		return nil
	}
	in := xs
	var outs [][]float64
	var pre, preAct []float64
	for _, l := range im.Layers {
		H := l.Hidden
		slab := make([]float64, T*H)
		outs = make([][]float64, T)
		for t := range outs {
			outs[t] = slab[t*H : (t+1)*H]
		}
		c := make([]float64, H)
		switch {
		case haveSIMD:
			// With the vector backend, plain per-step input projection
			// runs in SIMD and beats the scalar 4-timestep-blocked
			// pre-projection. Pre-projected and plain steps are
			// bitwise-identical (the partial-sum resume preserves each
			// row's exact addition order), so the choice is free.
			if cap(preAct) < 4*H {
				preAct = make([]float64, 4*H)
			}
			h := make([]float64, H)
			for t := 0; t < T; t++ {
				l.step(h, c, outs[t], in[t], nil, 0, preAct)
				h = outs[t]
			}
		default:
			// Scalar backend: pre-compute every timestep's input
			// projection in one blocked pass so each weight streams once
			// per four steps, leaving only the recurrent matvec on the
			// sequential path.
			if cap(pre) < T*4*H {
				pre = make([]float64, T*4*H)
			}
			pre = pre[:T*4*H]
			l.preProject(pre, in, l.In)
			if cap(preAct) < 4*H {
				preAct = make([]float64, 4*H)
			}
			h := make([]float64, H)
			for t := 0; t < T; t++ {
				l.step(h, c, outs[t], nil, pre[t*4*H:(t+1)*4*H], l.In, preAct)
				h = outs[t]
			}
		}
		in = outs
	}
	return outs
}

// StepBatchLanesInto advances n independent states one timestep each:
// lane b advances sts[b] through its *own* compiled stack ims[b], fed
// xs[b]. Lanes may repeat one *InferModel (N clients of one checkpoint)
// or mix distinct ones; this is the kernel behind cross-checkpoint shape
// batching in the serving layer (internal/serve): many distinct trained
// checkpoints that share one architecture advance pad-free in one
// dispatch. States advance in place (read each lane's output from its
// state's Top).
//
// Lanes advance one at a time through the fused single-lane kernel. A
// lane-interleaved variant (each weight load shared by four lanes'
// accumulator chains) measured slower: the single-lane kernel already
// carries four independent chains per unit — the fused gate rows, SIMD
// lanes when available — and its weight reads are one linear stream the
// prefetcher hides. What batching buys is the shared per-window setup —
// feature standardization and layer-0 pre-projection — and the lockstep
// call shape the serving batcher needs.
//
// Per-lane weight pointers come for free from the fused kernel's shape:
// the packed weight base (&packed[0]) is a per-call argument of both the
// AVX2 fast path and the scalar fallback, so swapping checkpoints between
// lanes is just a different base pointer — no layout change, no copying.
// Each lane runs the exact single-member operation sequence (bias first,
// input terms ascending k, then recurrent terms ascending k; no FMA), so
// results are bitwise-identical to StepInto on that lane's own model
// regardless of batch composition or order. Callers that care about
// throughput should place lanes of the same checkpoint adjacently: a
// checkpoint's packed weight stream then stays cache-resident across its
// lanes.
//
// All lanes must share one architecture (SameArch: per-layer
// In/Hidden); mixing shapes panics rather than corrupting state.
// pres/tailOff optionally carry per-lane pre-projected layer-0 prefixes
// (see PreProjectInput); pass (nil, 0) when inputs are not pre-projected.
func StepBatchLanesInto(ims []*InferModel, sts []*InferState, xs [][]float64, pres [][]float64, tailOff int) {
	n := len(ims)
	if n != len(sts) || n != len(xs) {
		panic("nn: StepBatchLanesInto models/states/inputs length mismatch")
	}
	if n == 0 {
		return
	}
	ref := ims[0]
	for b := 1; b < n; b++ {
		if !ref.SameArch(ims[b]) {
			panic("nn: StepBatchLanesInto lanes span incompatible architectures")
		}
	}
	for b := 0; b < n; b++ {
		var pre []float64
		if pres != nil {
			pre = pres[b]
		}
		ims[b].stepLane(sts[b], xs[b], pre, tailOff)
	}
}
