package nn

import "math"

// The LSTM kernels and the one layout of an LSTM stack's weights. The
// layout is built for the per-step read pattern; inference steps run on it
// allocation-free, training runs its forward pass through the same kernel
// and accumulates gradients into a buffer of the same shape (lstm.go), and
// a model read from an artifact is decoded straight into it.
//
// Packed layout (InferLayer.w.W): one block per hidden unit, holding
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
// bias first, then input terms in ascending k, then recurrent terms in
// ascending k — the order of the historical row-by-row blocked step, which
// the package tests keep as a reference oracle — so every kernel in this
// file, SIMD or scalar, produces the same bits. The gate activations
// (activate) are elementwise; their SIMD kernel reproduces sigmoid,
// math.Tanh and math.Exp's amd64 instruction sequence lane by lane, so it
// too gives the scalar loop's bits.
//
// A step can also resume each row from a caller-supplied partial sum over
// the input columns k < tailOff (StepBatchLanesInto's pres): the addition
// sequence per row is unchanged, so the bits are too. No caller outside
// the package tests supplies one; see StepBatchLanesInto.

// InferLayer is one LSTM layer in the packed layout.
type InferLayer struct {
	In, Hidden int
	blkStride  int // floats per unit block: 4*(1 + In + Hidden)
	// w.W is the Hidden unit blocks (see file comment); w.Grad, once a
	// backward pass has run, is the gradient in the same layout.
	w Param
}

// InferModel is an LSTM stack: the one copy of its weights, which
// inference and training both run on.
type InferModel struct {
	Layers []*InferLayer
	maxH   int
}

// newInferLayer allocates a layer's packed buffer, all zero.
func newInferLayer(in, hidden int) *InferLayer {
	bs := 4 * (1 + in + hidden)
	l := &InferLayer{In: in, Hidden: hidden, blkStride: bs}
	l.w = Param{W: make([]float64, hidden*bs), layer: l}
	return l
}

// A layer's tensors in artifact order. Each is a row-major matrix whose
// row r = g·Hidden + j holds gate g of unit j — the i|f|g|o blocked
// order; the bias is the one-column matrix of 4·Hidden rows.
const (
	tensorWx = iota
	tensorWh
	tensorB
	tensorsPerLayer
)

// rowLen returns tensor t's column count.
func (l *InferLayer) rowLen(t int) int {
	switch t {
	case tensorWx:
		return l.In
	case tensorWh:
		return l.Hidden
	}
	return 1
}

// tensorLen returns tensor t's element count.
func (l *InferLayer) tensorLen(t int) int { return 4 * l.Hidden * l.rowLen(t) }

// runs is the one (tensor, row, column) → packed-offset mapping;
// initialization, the artifact readers and the writer, and Adam's
// gradient norm all go through it. It splits the n values of tensor t
// that start at row-major index at into row pieces and calls
// fn(i, pos, cnt) for each:
// values at+i … at+i+cnt−1 sit at packed[pos], packed[pos+4], … — a
// row's columns lie 4 floats apart inside its unit's block, one slot per
// gate.
func (l *InferLayer) runs(t, at, n int, fn func(i, pos, cnt int)) {
	cols := l.rowLen(t)
	off := 4 // tensorWx: the input columns follow the unit's four biases
	switch t {
	case tensorWh:
		off += 4 * l.In
	case tensorB:
		off = 0
	}
	for i := 0; i < n; {
		r, k := (at+i)/cols, (at+i)%cols
		cnt := min(n-i, cols-k)
		fn(i, (r%l.Hidden)*l.blkStride+off+4*k+r/l.Hidden, cnt)
		i += cnt
	}
}

// scatter stores vals as values [at, at+len(vals)) of tensor t.
func (l *InferLayer) scatter(t, at int, vals []float64) {
	l.runs(t, at, len(vals), func(i, pos, cnt int) {
		for _, v := range vals[i : i+cnt] {
			l.w.W[pos] = v
			pos += 4
		}
	})
}

// gather reads values [at, at+len(dst)) of tensor t into dst.
func (l *InferLayer) gather(t, at int, dst []float64) {
	l.runs(t, at, len(dst), func(i, pos, cnt int) {
		for c := range dst[i : i+cnt] {
			dst[i+c] = l.w.W[pos]
			pos += 4
		}
	})
}

// Compile returns a copy of the stack's weights, without gradients: a
// kernel that keeps today's weights while the stack trains on.
func (im *InferModel) Compile() *InferModel {
	c := &InferModel{maxH: im.maxH}
	for _, l := range im.Layers {
		cl := newInferLayer(l.In, l.Hidden)
		copy(cl.w.W, l.w.W)
		c.Layers = append(c.Layers, cl)
	}
	return c
}

// Arch returns the stack's architecture: layer 0's input width,
// the (uniform) hidden width, and the layer count; zeros for none.
func (im *InferModel) Arch() (in, hidden, layers int) {
	if im == nil || len(im.Layers) == 0 {
		return 0, 0, 0
	}
	return im.Layers[0].In, im.Layers[0].Hidden, len(im.Layers)
}

// SameArch reports whether two stacks can advance side by side
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

// InferState is the recurrent state for a stack plus the
// scratch the zero-alloc step needs. States are cheap to reset and are
// meant to be reused across sequences; they must not be shared between
// goroutines.
type InferState struct {
	h, c []float64 // all layers' vectors, carved from one backing array
	off  []int     // layer l's h/c live at [off[l], off[l]+H_l)
	hNxt []float64 // ping-pong target: a step reads h and writes hNxt
	pre  []float64 // gate pre-activation scratch, 4*max(Hidden)
}

// NewState returns a zeroed state for the stack.
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
// It performs no allocation.
func (im *InferModel) StepInto(st *InferState, x []float64) []float64 {
	im.stepLane(st, x, nil, 0, nil)
	return st.top()
}

// stepLane advances one state one timestep through this stack — the
// shared inner body of StepInto, StepBatchLanesInto and Split.StepInto.
// pre/tailOff optionally carry the timestep's partial layer-0 row sums
// (see StepBatchLanesInto); pass (nil, 0) otherwise. sp, when non-nil,
// offers each layer's upper unit half to its helper (split.go).
func (im *InferModel) stepLane(st *InferState, x, pre []float64, tailOff int, sp *Split) {
	in := x
	for li, l := range im.Layers {
		h, c, hn := st.layer(im, li)
		if li == 0 {
			l.step(h, c, hn, in, pre, tailOff, st.pre, sp)
		} else {
			l.step(h, c, hn, in, nil, 0, st.pre, sp)
		}
		in = hn
	}
	st.swap()
}

// step advances one layer: hNew and c are written from hPrev, c and
// input x. pre, when non-nil, holds this timestep's partial
// row sums (unit-major 4-per-unit order, covering the bias and input
// columns k < tailOff); input terms k >= tailOff are taken from x. With
// pre == nil the accumulators start from the packed biases and tailOff
// must be 0. preAct is caller scratch of at least 4*Hidden floats. c is
// updated in place; hNew must not alias hPrev.
//
// Without a Split the layer runs as one unit range, [0, Hidden), of the
// one body unitTask.run. With one (and Hidden ≥ 8) it runs as two: the
// upper [mid, Hidden) is published for the helper, the lower [0, mid)
// runs here, and the layer is done once both are written (split.go).
func (l *InferLayer) step(hPrev, c, hNew, x []float64, pre []float64, tailOff int, preAct []float64, sp *Split) {
	t := unitTask{l: l, hPrev: hPrev, c: c, hNew: hNew, x: x, pre: pre, preAct: preAct, tailOff: tailOff, lo: 0, hi: l.Hidden}
	mid := splitAt(l.Hidden)
	if sp == nil || mid == 0 {
		t.run()
		return
	}
	upper := t
	upper.lo = mid
	sp.publish(upper)
	t.hi = mid
	t.run()
	sp.finish()
}

// splitAt is the first unit of a split layer's upper half: half the
// units, rounded down to whole SIMD groups so both halves run as many
// 4-unit groups as the whole layer would. 0 (Hidden < 8) means the layer
// does not split.
func splitAt(hidden int) int { return (hidden / 2) &^ 3 }

// unitTask is one layer-step over the unit range [lo, hi): step's
// arguments plus the range.
type unitTask struct {
	l                              *InferLayer
	hPrev, c, hNew, x, pre, preAct []float64
	tailOff, lo, hi                int
}

// run advances units [lo, hi): their gate pre-activations into
// preAct[4lo:4hi], then the activations, writing c and hNew over the
// range. Unit j's arithmetic reads only hPrev, x, pre and its own weight
// block, so disjoint ranges may run concurrently with the same bits.
func (t *unitTask) run() {
	lo, hi := t.lo, t.hi
	t.l.gatePre(t.preAct, t.hPrev, t.x, t.pre, t.tailOff, lo, hi)
	activate(t.preAct[4*lo:4*hi], t.c[lo:hi], t.c[lo:hi], nil, t.hNew[lo:hi])
}

// gatePre computes the gate pre-activations of units [lo, hi) into
// dst[4lo:4hi] (unit-major, 4 per unit; pre is indexed the same way):
// the SIMD kernel covers whole 4-unit groups when available, the scalar
// loop the rest. Both run the identical per-row operation sequence.
func (l *InferLayer) gatePre(dst, hPrev, x, pre []float64, tailOff, lo, hi int) {
	j0 := lo
	if haveSIMD {
		if groups := (hi - lo) / 4; groups > 0 {
			var preP *float64
			if pre != nil {
				preP = &pre[4*lo]
			}
			hp := &hPrev[0]
			xp := hp // x is never read when tailOff == In (nil x allowed)
			if len(x) > 0 {
				xp = &x[0]
			}
			layerPreSIMD(&l.w.W[lo*l.blkStride], xp, hp, preP, &dst[4*lo],
				int64(l.In), int64(len(hPrev)), int64(groups), int64(tailOff), int64(l.blkStride*8))
			j0 = lo + groups*4
		}
	}
	l.gatePreScalar(dst, hPrev, x, pre, tailOff, j0, hi)
}

// gatePreScalar is the portable gate pre-activation kernel, covering
// units [j0, hi). The four gate rows of a unit run as four
// independent accumulator chains off shared x/h loads.
func (l *InferLayer) gatePreScalar(dst, hPrev, x, pre []float64, tailOff, j0, hi int) {
	In, bs := l.In, l.blkStride
	for j := j0; j < hi; j++ {
		blk := l.w.W[j*bs : (j+1)*bs]
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

// activate applies the LSTM nonlinearities to one step of one layer.
// gates holds the pre-activations unit-major (4 per unit, i|f|g|o) and
// gets the activated gates back in place; it writes c = f·cPrev + i·g
// (c may alias cPrev), tanh c when tanhC is non-nil, and h = o·tanh c;
// len(c) units are consumed. The SIMD kernel covers whole 4-unit groups
// when available, the scalar loop the rest, with the same bits.
func activate(gates, cPrev, c, tanhC, h []float64) {
	j0 := 0
	if groups := len(c) / 4; haveSIMD && groups > 0 {
		var tc *float64
		if tanhC != nil {
			tc = &tanhC[0]
		}
		gateActSIMD(&gates[0], &cPrev[0], &c[0], tc, &h[0], int64(groups))
		j0 = groups * 4
	}
	for j := j0; j < len(c); j++ {
		q := gates[4*j : 4*j+4 : 4*j+4]
		ig, fg, gg, og := sigmoid(q[0]), sigmoid(q[1]), math.Tanh(q[2]), sigmoid(q[3])
		q[0], q[1], q[2], q[3] = ig, fg, gg, og
		cj := fg*cPrev[j] + ig*gg
		c[j] = cj
		tcj := math.Tanh(cj)
		if tanhC != nil {
			tanhC[j] = tcj
		}
		h[j] = og * tcj
	}
}

// Forward runs the stack over a fully known input window from a zero
// state and returns the top layer's hidden vector per timestep. It
// traverses layer-major — each layer's inputs (the window for layer 0,
// the full output sequence of the layer below otherwise) are known
// before its sequential pass starts — through the same per-step kernel
// as StepInto, so the results are StepInto's bit for bit.
func (im *InferModel) Forward(xs [][]float64) [][]float64 {
	T := len(xs)
	if T == 0 {
		return nil
	}
	in := xs
	var outs [][]float64
	preAct := make([]float64, 4*im.maxH)
	for _, l := range im.Layers {
		H := l.Hidden
		slab := make([]float64, T*H)
		outs = make([][]float64, T)
		for t := range outs {
			outs[t] = slab[t*H : (t+1)*H]
		}
		c := make([]float64, H)
		h := make([]float64, H)
		for t := 0; t < T; t++ {
			l.step(h, c, outs[t], in[t], nil, 0, preAct, nil)
			h = outs[t]
		}
		in = outs
	}
	return outs
}

// StepBatchLanesInto advances n independent states one timestep each:
// lane b advances sts[b] through its *own* stack ims[b], fed
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
// prefetcher hides. What batching buys is the lockstep call shape the
// serving batcher needs.
//
// Per-lane weight pointers come for free from the fused kernel's shape:
// the packed weight base (&w.W[0]) is a per-call argument of both the
// AVX2 fast path and the scalar fallback, so swapping checkpoints between
// lanes is just a different base pointer — no layout change, no copying.
// Each lane runs the exact single-member operation sequence (bias first,
// input terms ascending k, then recurrent terms ascending k; no FMA), so
// results are bitwise-identical to StepInto on that lane's own model
// regardless of batch composition or order. Placing lanes of the same
// checkpoint adjacently lets the later lanes read its packed weights
// from cache, but only when they fit in L2: a 96×1 checkpoint (≈313 KB)
// does. A paper-scale 256×4 one (14.7 MB) does not, and every lane
// re-streams it from L3, ≈640 µs a step at ≈23 GB/s per core. A lone
// lane can take a second core instead (Split).
//
// All lanes must share one architecture (SameArch: per-layer
// In/Hidden); mixing shapes panics rather than corrupting state.
// pres/tailOff optionally carry per-lane partial layer-0 row sums over
// the input columns k < tailOff, in the packed unit-major order (the
// resume path; see the file comment); pass (nil, 0) otherwise.
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
		ims[b].stepLane(sts[b], xs[b], pre, tailOff, nil)
	}
}
