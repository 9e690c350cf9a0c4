package nn

import (
	"math"

	"ibox/internal/sim"
)

// LSTMLayer is one LSTM layer with the standard gate formulation
//
//	i = σ(Wx_i·x + Wh_i·h + b_i)    f = σ(Wx_f·x + Wh_f·h + b_f)
//	g = tanh(Wx_g·x + Wh_g·h + b_g) o = σ(Wx_o·x + Wh_o·h + b_o)
//	c' = f⊙c + i⊙g                  h' = o⊙tanh(c')
//
// The four gates are packed in i|f|g|o order. The forget-gate bias is
// initialized to 1 (the standard trick for gradient flow over long
// sequences).
type LSTMLayer struct {
	In, Hidden int
	Wx         *Param // 4H×In
	Wh         *Param // 4H×H
	B          *Param // 4H
}

// newLSTMLayer allocates a layer with all-zero weights.
func newLSTMLayer(in, hidden int) *LSTMLayer {
	return &LSTMLayer{
		In: in, Hidden: hidden,
		Wx: newParam(4 * hidden * in),
		Wh: newParam(4 * hidden * hidden),
		B:  newParam(4 * hidden),
	}
}

// NewLSTMLayer returns a layer with Xavier-uniform weights.
func NewLSTMLayer(in, hidden int, seed int64) *LSTMLayer {
	l := newLSTMLayer(in, hidden)
	rng := sim.NewRand(seed, 202)
	bx := math.Sqrt(6.0 / float64(in+hidden))
	for i := range l.Wx.W {
		l.Wx.W[i] = (rng.Float64()*2 - 1) * bx
	}
	bh := math.Sqrt(6.0 / float64(2*hidden))
	for i := range l.Wh.W {
		l.Wh.W[i] = (rng.Float64()*2 - 1) * bh
	}
	for j := hidden; j < 2*hidden; j++ {
		l.B.W[j] = 1 // forget gate bias
	}
	return l
}

// Params returns the layer's learnable parameters, in the tensorWx,
// tensorWh, tensorB order the packed mapping (InferLayer.runs) numbers
// them by.
func (l *LSTMLayer) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// lstmCache stores one timestep's activations for BPTT.
type lstmCache struct {
	x, hPrev, cPrev []float64
	i, f, g, o      []float64
	c, tanhC, h     []float64
}

// attach carves the cache's seven activation vectors out of slab (length
// at least 7*H). ForwardSequence allocates one slab per layer for the
// whole sequence instead of seven small slices per step.
func (c *lstmCache) attach(slab []float64, H int) {
	c.i, slab = slab[:H:H], slab[H:]
	c.f, slab = slab[:H:H], slab[H:]
	c.g, slab = slab[:H:H], slab[H:]
	c.o, slab = slab[:H:H], slab[H:]
	c.c, slab = slab[:H:H], slab[H:]
	c.tanhC, slab = slab[:H:H], slab[H:]
	c.h = slab[:H:H]
}

// step computes one forward step into cache (whose activation vectors
// must already be attached). pre is caller scratch of at least 4*Hidden;
// the cache retains x, hPrev and cPrev by reference.
func (l *LSTMLayer) step(x, hPrev, cPrev, pre []float64, cache *lstmCache) {
	H := l.Hidden
	for j := 0; j < 4*H; j++ {
		s := l.B.W[j]
		rx := l.Wx.W[j*l.In : (j+1)*l.In]
		for k, xv := range x {
			s += rx[k] * xv
		}
		rh := l.Wh.W[j*H : (j+1)*H]
		for k, hv := range hPrev {
			s += rh[k] * hv
		}
		pre[j] = s
	}
	cache.x, cache.hPrev, cache.cPrev = x, hPrev, cPrev
	for j := 0; j < H; j++ {
		cache.i[j] = sigmoid(pre[j])
		cache.f[j] = sigmoid(pre[H+j])
		cache.g[j] = math.Tanh(pre[2*H+j])
		cache.o[j] = sigmoid(pre[3*H+j])
		cache.c[j] = cache.f[j]*cPrev[j] + cache.i[j]*cache.g[j]
		cache.tanhC[j] = math.Tanh(cache.c[j])
		cache.h[j] = cache.o[j] * cache.tanhC[j]
	}
}

// stepBackward accumulates gradients for one timestep. dh and dc are the
// gradients flowing into this step's h and c outputs; dx, dhPrev and
// dcPrev receive the gradients for x, hPrev and cPrev (dx and dhPrev are
// zeroed here first; dcPrev may alias dc — every element is read before
// it is overwritten). dPre is caller scratch of at least 4*Hidden. The
// arithmetic and accumulation order are exactly the historical
// allocate-per-step version's, so training remains byte-identical.
func (l *LSTMLayer) stepBackward(cache *lstmCache, dh, dc, dPre, dx, dhPrev, dcPrev []float64) {
	H := l.Hidden
	for j := 0; j < H; j++ {
		do := dh[j] * cache.tanhC[j]
		dcj := dc[j] + dh[j]*cache.o[j]*(1-cache.tanhC[j]*cache.tanhC[j])
		di := dcj * cache.g[j]
		df := dcj * cache.cPrev[j]
		dg := dcj * cache.i[j]
		dcPrev[j] = dcj * cache.f[j]
		dPre[j] = di * cache.i[j] * (1 - cache.i[j])
		dPre[H+j] = df * cache.f[j] * (1 - cache.f[j])
		dPre[2*H+j] = dg * (1 - cache.g[j]*cache.g[j])
		dPre[3*H+j] = do * cache.o[j] * (1 - cache.o[j])
	}
	for k := range dx {
		dx[k] = 0
	}
	for k := range dhPrev {
		dhPrev[k] = 0
	}
	for j := 0; j < 4*H; j++ {
		g := dPre[j]
		if g == 0 {
			continue
		}
		l.B.Grad[j] += g
		rx := l.Wx.W[j*l.In : (j+1)*l.In]
		gx := l.Wx.Grad[j*l.In : (j+1)*l.In]
		for k, xv := range cache.x {
			gx[k] += g * xv
			dx[k] += g * rx[k]
		}
		rh := l.Wh.W[j*H : (j+1)*H]
		gh := l.Wh.Grad[j*H : (j+1)*H]
		for k, hv := range cache.hPrev {
			gh[k] += g * hv
			dhPrev[k] += g * rh[k]
		}
	}
}

// LSTM is a stack of LSTM layers (Fig 6's multi-layer state encoder).
type LSTM struct {
	Layers []*LSTMLayer
}

// NewLSTM builds a stack: the first layer maps in→hidden, the rest
// hidden→hidden.
func NewLSTM(in, hidden, layers int, seed int64) *LSTM {
	if layers < 1 {
		panic("nn: LSTM needs at least one layer")
	}
	m := &LSTM{}
	for l := 0; l < layers; l++ {
		szIn := hidden
		if l == 0 {
			szIn = in
		}
		m.Layers = append(m.Layers, NewLSTMLayer(szIn, hidden, seed+int64(l)*31))
	}
	return m
}

// Params returns all learnable parameters of the stack.
func (m *LSTM) Params() []*Param {
	var ps []*Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Hidden returns the stack's hidden size.
func (m *LSTM) Hidden() int { return m.Layers[0].Hidden }

// State is the recurrent state (h, c per layer) of an LSTM stack.
type State struct {
	h, c [][]float64
}

// NewState returns a zero state for the stack.
func (m *LSTM) NewState() *State {
	s := &State{}
	for _, l := range m.Layers {
		s.h = append(s.h, make([]float64, l.Hidden))
		s.c = append(s.c, make([]float64, l.Hidden))
	}
	return s
}

// Step advances the stack one timestep from state s, returning the top
// layer's hidden vector and the new state. The input state is not
// modified.
func (m *LSTM) Step(s *State, x []float64) ([]float64, *State) {
	out, ns, _ := m.stepCached(s, x)
	return out, ns
}

func (m *LSTM) stepCached(s *State, x []float64) ([]float64, *State, []*lstmCache) {
	ns := &State{}
	caches := make([]*lstmCache, len(m.Layers))
	in := x
	for li, l := range m.Layers {
		cache := &lstmCache{}
		cache.attach(make([]float64, 7*l.Hidden), l.Hidden)
		l.step(in, s.h[li], s.c[li], make([]float64, 4*l.Hidden), cache)
		caches[li] = cache
		ns.h = append(ns.h, cache.h)
		ns.c = append(ns.c, cache.c)
		in = cache.h
	}
	return in, ns, caches
}

// maxHidden returns the widest layer's hidden size.
func (m *LSTM) maxHidden() int {
	maxH := 0
	for _, l := range m.Layers {
		if l.Hidden > maxH {
			maxH = l.Hidden
		}
	}
	return maxH
}

// ForwardSequence runs the stack over a sequence from a zero state and
// returns the top-layer hidden vector at every timestep plus the caches
// needed by BackwardSequence. Scratch is allocated per sequence, not per
// step: one activation slab per layer and one shared pre-activation
// buffer, so a T-step forward costs O(layers) allocations instead of
// O(T·layers) — the arithmetic is unchanged, so training stays
// byte-identical.
func (m *LSTM) ForwardSequence(xs [][]float64) ([][]float64, [][]*lstmCache) {
	T := len(xs)
	L := len(m.Layers)
	outs := make([][]float64, T)
	caches := make([][]*lstmCache, T)
	structs := make([]lstmCache, T*L)
	for t := range caches {
		caches[t] = make([]*lstmCache, L)
		for li := range caches[t] {
			caches[t][li] = &structs[t*L+li]
		}
	}
	for li, l := range m.Layers {
		H := l.Hidden
		slab := make([]float64, T*7*H)
		for t := 0; t < T; t++ {
			caches[t][li].attach(slab[t*7*H:(t+1)*7*H], H)
		}
	}
	pre := make([]float64, 4*m.maxHidden())
	state := m.NewState()
	for t, x := range xs {
		in := x
		for li, l := range m.Layers {
			c := caches[t][li]
			l.step(in, state.h[li], state.c[li], pre, c)
			state.h[li], state.c[li] = c.h, c.c
			in = c.h
		}
		outs[t] = in
	}
	return outs, caches
}

// BackwardSequence back-propagates through time: dOut[t] is the loss
// gradient with respect to the top-layer hidden output at step t.
// Parameter gradients accumulate into the layers' Grad buffers. It returns
// the gradient with respect to each input xs[t]. Like ForwardSequence it
// allocates scratch per sequence, not per step: dc updates in place
// (stepBackward reads each element before overwriting it), dh double-
// buffers per layer, and upper layers' dx reuse one buffer each — only
// layer 0's dx slices persist, carved from a single slab, because they
// are the returned values.
func (m *LSTM) BackwardSequence(caches [][]*lstmCache, dOut [][]float64) [][]float64 {
	for _, p := range m.Params() {
		p.grad() // the first backward pass allocates the gradients
	}
	L := len(m.Layers)
	T := len(caches)
	dxs := make([][]float64, T)
	maxH := m.maxHidden()
	// Per-layer gradients flowing backward in time.
	dh := make([][]float64, L)
	dhNext := make([][]float64, L)
	dc := make([][]float64, L)
	dxBuf := make([][]float64, L)
	for li, l := range m.Layers {
		dh[li] = make([]float64, l.Hidden)
		dhNext[li] = make([]float64, l.Hidden)
		dc[li] = make([]float64, l.Hidden)
		if li > 0 {
			dxBuf[li] = make([]float64, l.In)
		}
	}
	in0 := m.Layers[0].In
	dxSlab := make([]float64, T*in0)
	dhTotal := make([]float64, maxH)
	dPre := make([]float64, 4*maxH)
	for t := T - 1; t >= 0; t-- {
		// Gradient entering the top layer's h at step t: from the loss plus
		// recurrent flow.
		carry := dOut[t]
		for li := L - 1; li >= 0; li-- {
			l := m.Layers[li]
			dht := dhTotal[:l.Hidden]
			copy(dht, dh[li])
			for k := range carry {
				dht[k] += carry[k]
			}
			dx := dxBuf[li]
			if li == 0 {
				dx = dxSlab[t*in0 : (t+1)*in0]
			}
			l.stepBackward(caches[t][li], dht, dc[li], dPre, dx, dhNext[li], dc[li])
			dh[li], dhNext[li] = dhNext[li], dh[li]
			carry = dx // becomes the gradient into the layer below's h
		}
		dxs[t] = carry
	}
	return dxs
}
