package nn

import (
	"fmt"
	"math"
	"testing"

	"ibox/internal/sim"
)

// kernelShapes deliberately covers the awkward cases: In ≠ Hidden in both
// directions, 1–4 layers, and Hidden values with every residue mod 4 so
// the SIMD whole-group path, the scalar remainder path, and the
// no-full-group path (Hidden < 4) all run — plus the paper-scale §4.2
// stack (5 inputs, 256 hidden, 4 layers, ≈2.1M parameters).
var kernelShapes = []struct{ in, hidden, layers int }{
	{3, 5, 1},
	{4, 6, 2},
	{7, 3, 3},
	{5, 9, 4},
	{2, 4, 2},
	{6, 13, 2},
	{1, 1, 1},
	{4, 8, 3},
	{5, 256, 4},
}

// randSeq generates a deterministic pseudo-random input sequence.
func randSeq(seed int64, steps, dim int) [][]float64 {
	rng := sim.NewRand(seed, 11)
	xs := make([][]float64, steps)
	for t := range xs {
		xs[t] = make([]float64, dim)
		for k := range xs[t] {
			xs[t][k] = rng.NormFloat64()
		}
	}
	return xs
}

// predictSeq runs a Gaussian model over xs from a zero state, one
// StepInto and HeadGaussian per step.
func predictSeq(m *SequenceModel, xs [][]float64) []GaussianOutput {
	st, head := m.LSTM.NewState(), make([]float64, m.Head.Out)
	out := make([]GaussianOutput, len(xs))
	for t, x := range xs {
		out[t] = m.HeadGaussian(m.LSTM.StepInto(st, x), head)
	}
	return out
}

// bitsEqual fails the test unless a and b are bitwise-identical.
func bitsEqual(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d != %d", what, len(a), len(b))
	}
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			t.Fatalf("%s: [%d] = %x (%v) != %x (%v)",
				what, j, math.Float64bits(a[j]), a[j], math.Float64bits(b[j]), b[j])
		}
	}
}

// refLayer is the blocked weight layout training ran on before it moved
// onto the packed kernel, kept as the reference oracle (as sim keeps a
// container/heap one): per tensor a row-major matrix whose row
// r = g·Hidden + j is gate g of unit j, stepped row by row with one
// accumulator chain per row, and back-propagated the same way.
type refLayer struct {
	in, hidden int
	w, grad    [tensorsPerLayer][]float64 // Wx, Wh, b
}

// refStack copies a stack's weights into the blocked layout.
func refStack(im *InferModel) []*refLayer {
	var ls []*refLayer
	for _, il := range im.Layers {
		l := &refLayer{in: il.In, hidden: il.Hidden}
		for t := range l.w {
			l.w[t] = make([]float64, il.tensorLen(t))
			l.grad[t] = make([]float64, il.tensorLen(t))
			il.gather(t, 0, l.w[t])
		}
		ls = append(ls, l)
	}
	return ls
}

// refCache is one layer's activations at one step.
type refCache struct {
	x, hPrev, cPrev      []float64
	i, f, g, o, c, tanhC []float64
	h                    []float64
}

// step is the historical forward step.
func (l *refLayer) step(x, hPrev, cPrev []float64) *refCache {
	H := l.hidden
	wx, wh, b := l.w[tensorWx], l.w[tensorWh], l.w[tensorB]
	pre := make([]float64, 4*H)
	for j := range pre {
		s := b[j]
		for k, xv := range x {
			s += wx[j*l.in+k] * xv
		}
		for k, hv := range hPrev {
			s += wh[j*H+k] * hv
		}
		pre[j] = s
	}
	c := &refCache{x: x, hPrev: hPrev, cPrev: cPrev}
	for _, v := range []*[]float64{&c.i, &c.f, &c.g, &c.o, &c.c, &c.tanhC, &c.h} {
		*v = make([]float64, H)
	}
	for j := 0; j < H; j++ {
		c.i[j] = sigmoid(pre[j])
		c.f[j] = sigmoid(pre[H+j])
		c.g[j] = math.Tanh(pre[2*H+j])
		c.o[j] = sigmoid(pre[3*H+j])
		c.c[j] = c.f[j]*cPrev[j] + c.i[j]*c.g[j]
		c.tanhC[j] = math.Tanh(c.c[j])
		c.h[j] = c.o[j] * c.tanhC[j]
	}
	return c
}

// stepBackward is the historical backward step: it accumulates the
// weight gradients and returns the gradients into x, hPrev and cPrev.
func (l *refLayer) stepBackward(c *refCache, dh, dc []float64) (dx, dhPrev, dcPrev []float64) {
	H := l.hidden
	dPre := make([]float64, 4*H)
	dx, dhPrev, dcPrev = make([]float64, l.in), make([]float64, H), make([]float64, H)
	for j := 0; j < H; j++ {
		do := dh[j] * c.tanhC[j]
		dcj := dc[j] + dh[j]*c.o[j]*(1-c.tanhC[j]*c.tanhC[j])
		dcPrev[j] = dcj * c.f[j]
		dPre[j] = dcj * c.g[j] * c.i[j] * (1 - c.i[j])
		dPre[H+j] = dcj * c.cPrev[j] * c.f[j] * (1 - c.f[j])
		dPre[2*H+j] = dcj * c.i[j] * (1 - c.g[j]*c.g[j])
		dPre[3*H+j] = do * c.o[j] * (1 - c.o[j])
	}
	for j, g := range dPre {
		if g == 0 {
			continue
		}
		l.grad[tensorB][j] += g
		for k, xv := range c.x {
			l.grad[tensorWx][j*l.in+k] += g * xv
			dx[k] += g * l.w[tensorWx][j*l.in+k]
		}
		for k, hv := range c.hPrev {
			l.grad[tensorWh][j*H+k] += g * hv
			dhPrev[k] += g * l.w[tensorWh][j*H+k]
		}
	}
	return dx, dhPrev, dcPrev
}

// refSequence runs the oracle forward over xs from a zero state, then
// back-propagates dOut (the gradient into the top h at every step),
// returning the top hidden outputs.
func refSequence(ls []*refLayer, xs, dOut [][]float64) [][]float64 {
	caches := make([][]*refCache, len(xs))
	outs := make([][]float64, len(xs))
	h, c := make([][]float64, len(ls)), make([][]float64, len(ls))
	for li, l := range ls {
		h[li], c[li] = make([]float64, l.hidden), make([]float64, l.hidden)
	}
	for t, x := range xs {
		in := x
		for li, l := range ls {
			rc := l.step(in, h[li], c[li])
			caches[t] = append(caches[t], rc)
			h[li], c[li], in = rc.h, rc.c, rc.h
		}
		outs[t] = in
	}
	dh, dc := make([][]float64, len(ls)), make([][]float64, len(ls))
	for li, l := range ls {
		dh[li], dc[li] = make([]float64, l.hidden), make([]float64, l.hidden)
	}
	for t := len(xs) - 1; t >= 0; t-- {
		carry := dOut[t]
		for li := len(ls) - 1; li >= 0; li-- {
			dht := append([]float64(nil), dh[li]...)
			for k := range carry {
				dht[k] += carry[k]
			}
			carry, dh[li], dc[li] = ls[li].stepBackward(caches[t][li], dht, dc[li])
		}
	}
	return outs
}

// TestInferStepMatchesLSTMStep pins the core bitwise contract: the packed
// kernel's per-step output equals the blocked reference step
// float-for-float, across shapes that exercise the SIMD group, scalar
// remainder, and tiny-layer paths.
func TestInferStepMatchesLSTMStep(t *testing.T) {
	for _, sh := range kernelShapes {
		im := NewLSTM(sh.in, sh.hidden, sh.layers, 7)
		st := im.NewState()
		xs := randSeq(31, 12, sh.in)
		ref := refSequence(refStack(im), xs, make([][]float64, len(xs)))
		for tt, x := range xs {
			bitsEqual(t, "step output", im.StepInto(st, x), ref[tt])
		}
	}
}

// TestBackwardMatchesLSTMStepBackward is the gradient twin of
// TestInferStepMatchesLSTMStep: back-propagation on the packed layout —
// the gate cache, the gradient quads and the blocked-order input sums —
// accumulates exactly the reference backward step's weight gradients,
// bit for bit, over sequences from one step up.
func TestBackwardMatchesLSTMStepBackward(t *testing.T) {
	for _, sh := range kernelShapes {
		if sh.hidden > 64 {
			continue // the reference is slow; 96 wide runs in TestTrainingBitsGolden
		}
		for _, T := range []int{1, 2, 7} {
			im := NewLSTM(sh.in, sh.hidden, sh.layers, 5)
			xs := randSeq(int64(80+T), T, sh.in)
			dOut := randSeq(int64(90+T), T, sh.hidden)
			dOut[T-1] = make([]float64, sh.hidden) // an all-zero step, as a masked one is
			ls := refStack(im)
			refSequence(ls, xs, dOut)

			var w bptt
			w.forward(im, xs)
			for tt := range dOut {
				copy(w.dOut[tt*sh.hidden:], dOut[tt])
			}
			w.backward(im, xs)
			for li, il := range im.Layers {
				for ten := 0; ten < tensorsPerLayer; ten++ {
					got := make([]float64, il.tensorLen(ten))
					il.runs(ten, 0, len(got), func(i, pos, cnt int) {
						for c := 0; c < cnt; c++ {
							got[i+c] = il.w.Grad[pos+4*c]
						}
					})
					bitsEqual(t, fmt.Sprintf("%dx%dx%d T=%d layer %d tensor %d gradient",
						sh.in, sh.hidden, sh.layers, T, li, ten), got, ls[li].grad[ten])
				}
			}
		}
	}
}

const laneCount, laneSteps = 5, 6

// laneSeqs returns one deterministic input sequence per lane.
func laneSeqs(in int) [][][]float64 {
	seqs := make([][][]float64, laneCount)
	for b := range seqs {
		seqs[b] = randSeq(int64(400+b), laneSteps, in)
	}
	return seqs
}

// sharedLanes returns laneCount lanes that all step one *InferModel — N
// clients of one checkpoint.
func sharedLanes(in, hidden, layers int) []*InferModel {
	shared := NewLSTM(in, hidden, layers, 300)
	ims := make([]*InferModel, laneCount)
	for b := range ims {
		ims[b] = shared
	}
	return ims
}

// lanesMatchStep steps every lane through StepBatchLanesInto and fails
// unless each advances bitwise-identically to StepInto on its own model.
// upto = -1 runs layer 0 plain; upto >= 0 resumes it from each lane's
// partial row sums over the input prefix [0, upto) (prefixSums).
func lanesMatchStep(t *testing.T, what string, ims []*InferModel, seqs [][][]float64, upto int) {
	t.Helper()
	n, steps := len(ims), len(seqs[0])
	sts := make([]*InferState, n)
	refs := make([]*InferState, n)
	for b := range sts {
		sts[b] = ims[b].NewState()
		refs[b] = ims[b].NewState()
	}
	xs := make([][]float64, n)
	var pres [][]float64
	tailOff := 0
	if upto >= 0 {
		pres, tailOff = make([][]float64, n), upto
	}
	for tt := 0; tt < steps; tt++ {
		for b := range xs {
			xs[b] = seqs[b][tt]
			if pres != nil {
				pres[b] = prefixSums(t, ims[b], xs[b], upto)
			}
		}
		StepBatchLanesInto(ims, sts, xs, pres, tailOff)
		for b := 0; b < n; b++ {
			want := ims[b].StepInto(refs[b], seqs[b][tt])
			bitsEqual(t, what, sts[b].Top(), want)
		}
	}
}

// prefixSums returns layer 0's partial row sums bias + Σ_{k<upto}
// Wx[row][k]·x[k], the resume input of a step with tailOff = upto, built
// by gatePre itself from x with columns k ≥ upto zeroed and a zero
// hidden state. The zero terms add ±0, which leaves a partial sum
// unchanged unless it is −0; none is (checked).
func prefixSums(t *testing.T, im *InferModel, x []float64, upto int) []float64 {
	t.Helper()
	l := im.Layers[0]
	xp := make([]float64, l.In)
	copy(xp, x[:upto])
	pre := make([]float64, 4*l.Hidden)
	l.gatePre(pre, make([]float64, l.Hidden), xp, nil, 0, 0, l.Hidden)
	for _, v := range pre {
		if v == 0 && math.Signbit(v) {
			t.Fatal("prefixSums: a −0 partial sum, which zero padding would turn into +0")
		}
	}
	return pre
}

// TestStepBatchLanesMatchesStep pins the per-lane-weights kernel: lanes
// over distinct compiled stacks of one architecture, plain or resuming
// from any prefix's partial sums, each advance bitwise-identically to
// StepInto on their own model. n distinct copies of the paper-scale
// stack would hold n×17 MB of weights, so it runs only in the
// shared-model tests.
func TestStepBatchLanesMatchesStep(t *testing.T) {
	for _, sh := range kernelShapes {
		if sh.hidden > 64 {
			continue
		}
		ims := make([]*InferModel, laneCount)
		for b := range ims {
			// A distinct seed per lane: genuinely different weights.
			ims[b] = NewLSTM(sh.in, sh.hidden, sh.layers, int64(300+b))
		}
		seqs := laneSeqs(sh.in)
		for upto := -1; upto <= sh.in; upto++ {
			lanesMatchStep(t, fmt.Sprintf("%dx%dx%d distinct upto=%d", sh.in, sh.hidden, sh.layers, upto),
				ims, seqs, upto)
		}
	}
}

// TestStepBatchIntoMatchesStepInto checks lane independence when every
// lane shares one model: a batch of states over different sequences
// advances each exactly as it would alone.
func TestStepBatchIntoMatchesStepInto(t *testing.T) {
	for _, sh := range kernelShapes {
		lanesMatchStep(t, fmt.Sprintf("%dx%dx%d shared", sh.in, sh.hidden, sh.layers),
			sharedLanes(sh.in, sh.hidden, sh.layers), laneSeqs(sh.in), -1)
	}
}

// TestResumedStepMatchesPlain pins the kernel's resume path on a shared
// model: a step that starts each gate row from its partial sum over any
// input prefix [0, upto), built by gatePre, and adds the columns from
// tailOff = upto on must reproduce the plain step bitwise, for every
// split point including the bias-only upto = 0.
func TestResumedStepMatchesPlain(t *testing.T) {
	for _, sh := range kernelShapes {
		ims := sharedLanes(sh.in, sh.hidden, sh.layers)
		seqs := laneSeqs(sh.in)
		for upto := 0; upto <= sh.in; upto++ {
			lanesMatchStep(t, fmt.Sprintf("%dx%dx%d shared upto=%d", sh.in, sh.hidden, sh.layers, upto),
				ims, seqs, upto)
		}
	}
}

// TestStepBatchLanesPanicsOnMixedArch: lanes spanning incompatible
// architectures must fail loudly instead of corrupting state.
func TestStepBatchLanesPanicsOnMixedArch(t *testing.T) {
	a := NewLSTM(4, 6, 2, 1)
	b := NewLSTM(4, 7, 2, 2) // different hidden width
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for lanes over incompatible architectures")
		}
	}()
	StepBatchLanesInto(
		[]*InferModel{a, b},
		[]*InferState{a.NewState(), b.NewState()},
		[][]float64{{0, 0, 0, 0}, {0, 0, 0, 0}}, nil, 0)
}

// TestStepIntoNoAllocs pins the zero-allocation contract of the
// per-packet kernel step.
func TestStepIntoNoAllocs(t *testing.T) {
	im := NewLSTM(5, 24, 2, 17)
	st := im.NewState()
	x := randSeq(3, 1, 5)[0]
	if n := testing.AllocsPerRun(100, func() { im.StepInto(st, x) }); n != 0 {
		t.Fatalf("StepInto allocates %v times per step, want 0", n)
	}
}

// TestPredictorStepNoAllocs pins the zero-allocation contract of the full
// per-packet prediction path (kernel step + dense head).
func TestPredictorStepNoAllocs(t *testing.T) {
	m := NewSequenceModel(GaussianHead, 5, 24, 2, 19)
	st, head := m.LSTM.NewState(), make([]float64, m.Head.Out)
	x := randSeq(4, 1, 5)[0]
	if n := testing.AllocsPerRun(100, func() { m.HeadGaussian(m.LSTM.StepInto(st, x), head) }); n != 0 {
		t.Fatalf("StepInto + HeadGaussian allocates %v times per step, want 0", n)
	}
}

// FuzzInferKernel fuzzes shape and data seeds: whatever the dimensions,
// the packed kernel must match the blocked reference step bitwise — and
// so must the split step (split.go), whose helper leaves after a fuzzed
// number of idle polls, so at a random layer-step.
func FuzzInferKernel(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), uint8(2), uint8(4), uint8(0))
	f.Add(int64(9), uint8(1), uint8(1), uint8(1), uint8(1), uint8(255))
	f.Add(int64(42), uint8(8), uint8(16), uint8(4), uint8(7), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, in8, hid8, lay8, steps8, leave8 uint8) {
		in := 1 + int(in8)%9
		hidden := 1 + int(hid8)%17
		layers := 1 + int(lay8)%4
		steps := 1 + int(steps8)%8
		im := NewLSTM(in, hidden, layers, seed)
		st := im.NewState()
		xs := randSeq(seed+1, steps, in)
		ref := refSequence(refStack(im), xs, make([][]float64, steps))
		for tt, x := range xs {
			got := im.StepInto(st, x)
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(ref[tt][j]) {
					t.Fatalf("in=%d hidden=%d layers=%d: h[%d] %v != %v",
						in, hidden, layers, j, got[j], ref[tt][j])
				}
			}
		}
		plan := helperPlan{name: "fuzzed leave", polls: int64(leave8)}
		splitMatchesStep(t, fmt.Sprintf("in=%d hidden=%d layers=%d", in, hidden, layers), im, xs, -1, plan)
	})
}

// TestInferStateFreshReplay checks a second fresh state replays a
// sequence to the same bits as the first: stepping keeps no state in the
// model, so a warm registry entry serves every request alike.
func TestInferStateFreshReplay(t *testing.T) {
	im := NewLSTM(4, 7, 2, 37)
	xs := randSeq(88, 6, 4)
	st := im.NewState()
	first := make([][]float64, len(xs))
	for tt, x := range xs {
		first[tt] = append([]float64(nil), im.StepInto(st, x)...)
	}
	st = im.NewState()
	for tt, x := range xs {
		bitsEqual(t, "fresh-state step", im.StepInto(st, x), first[tt])
	}
}
