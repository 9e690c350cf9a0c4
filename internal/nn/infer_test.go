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

// TestInferStepMatchesLSTMStep pins the core bitwise contract: the
// compiled kernel's per-step output equals the training-path LSTM.Step
// float-for-float, across shapes that exercise the SIMD group, scalar
// remainder, and tiny-layer paths.
func TestInferStepMatchesLSTMStep(t *testing.T) {
	for _, sh := range kernelShapes {
		lstm := NewLSTM(sh.in, sh.hidden, sh.layers, 7)
		im := lstm.Compile()
		st := im.NewState()
		ref := lstm.NewState()
		xs := randSeq(31, 12, sh.in)
		for _, x := range xs {
			got := im.StepInto(st, x)
			var want []float64
			want, ref = lstm.Step(ref, x)
			bitsEqual(t, "step output", got, want)
		}
	}
}

// TestInferForwardMatchesStepInto pins the layer-major pre-projected
// window forward against the sequential step kernel, bitwise.
func TestInferForwardMatchesStepInto(t *testing.T) {
	for _, sh := range kernelShapes {
		lstm := NewLSTM(sh.in, sh.hidden, sh.layers, 9)
		im := lstm.Compile()
		for _, T := range []int{1, 2, 5, 9} {
			xs := randSeq(int64(40+T), T, sh.in)
			outs := im.Forward(xs)
			st := im.NewState()
			for tt, x := range xs {
				want := im.StepInto(st, x)
				bitsEqual(t, "forward output", outs[tt], want)
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
	shared := NewLSTM(in, hidden, layers, 300).Compile()
	ims := make([]*InferModel, laneCount)
	for b := range ims {
		ims[b] = shared
	}
	return ims
}

// lanesMatchStep steps every lane through StepBatchLanesInto and fails
// unless each advances bitwise-identically to StepInto on its own model.
// upto = -1 runs layer 0 plain; upto >= 0 resumes it from a per-lane
// pre-projected prefix [0, upto) of the input columns.
func lanesMatchStep(t *testing.T, what string, ims []*InferModel, seqs [][][]float64, upto int) {
	t.Helper()
	n, steps := len(ims), len(seqs[0])
	rows := ims[0].InputRowsPerStep()
	var pres [][]float64
	tailOff := 0
	if upto >= 0 {
		// Per-lane pre-projection through the lane's own layer 0.
		tailOff = upto
		pres = make([][]float64, n)
		for b := range pres {
			pres[b] = make([]float64, steps*rows)
			ims[b].PreProjectInput(pres[b], seqs[b], upto)
		}
	}
	sts := make([]*InferState, n)
	refs := make([]*InferState, n)
	for b := range sts {
		sts[b] = ims[b].NewState()
		refs[b] = ims[b].NewState()
	}
	xs := make([][]float64, n)
	var lanesPre [][]float64
	if pres != nil {
		lanesPre = make([][]float64, n)
	}
	for tt := 0; tt < steps; tt++ {
		for b := range xs {
			xs[b] = seqs[b][tt]
			if pres != nil {
				lanesPre[b] = pres[b][tt*rows : (tt+1)*rows]
			}
		}
		StepBatchLanesInto(ims, sts, xs, lanesPre, tailOff)
		for b := 0; b < n; b++ {
			want := ims[b].StepInto(refs[b], seqs[b][tt])
			bitsEqual(t, what, sts[b].Top(), want)
		}
	}
}

// TestStepBatchLanesMatchesStep pins the per-lane-weights kernel: lanes
// over distinct compiled stacks of one architecture, plain or resuming
// from any pre-projected prefix, each advance bitwise-identically to
// StepInto on their own model. n distinct copies of the paper-scale
// stack would hold n×70 MB of training-layout weights, so it runs only
// in the shared-model tests.
func TestStepBatchLanesMatchesStep(t *testing.T) {
	for _, sh := range kernelShapes {
		if sh.hidden > 64 {
			continue
		}
		ims := make([]*InferModel, laneCount)
		for b := range ims {
			// A distinct seed per lane: genuinely different weights.
			ims[b] = NewLSTM(sh.in, sh.hidden, sh.layers, int64(300+b)).Compile()
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

// TestPreProjectedStepMatchesPlain pins the prefix pre-projection path on
// a shared model: pre-projecting any prefix [0, upto) of the input
// columns and resuming with tailOff = upto must reproduce the plain step
// bitwise, for every split point including the bias-only upto = 0.
func TestPreProjectedStepMatchesPlain(t *testing.T) {
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
	a := NewLSTM(4, 6, 2, 1).Compile()
	b := NewLSTM(4, 7, 2, 2).Compile() // different hidden width
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
	lstm := NewLSTM(5, 24, 2, 17)
	im := lstm.Compile()
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
	p := m.NewPredictor()
	x := randSeq(4, 1, 5)[0]
	if n := testing.AllocsPerRun(100, func() { p.StepGaussian(x) }); n != 0 {
		t.Fatalf("StepGaussian allocates %v times per step, want 0", n)
	}
}

// FuzzInferKernel fuzzes shape and data seeds: whatever the dimensions,
// the compiled kernel must match the training-path step bitwise.
func FuzzInferKernel(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), uint8(2), uint8(4))
	f.Add(int64(9), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Add(int64(42), uint8(8), uint8(16), uint8(4), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, in8, hid8, lay8, steps8 uint8) {
		in := 1 + int(in8)%9
		hidden := 1 + int(hid8)%17
		layers := 1 + int(lay8)%4
		steps := 1 + int(steps8)%8
		lstm := NewLSTM(in, hidden, layers, seed)
		im := lstm.Compile()
		st := im.NewState()
		ref := lstm.NewState()
		for _, x := range randSeq(seed+1, steps, in) {
			got := im.StepInto(st, x)
			var want []float64
			want, ref = lstm.Step(ref, x)
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("in=%d hidden=%d layers=%d: h[%d] %v != %v",
						in, hidden, layers, j, got[j], want[j])
				}
			}
		}
	})
}

// TestInferStateResetReuse checks a reset state replays a sequence to the
// same bits as a fresh one (the serving warm-registry reuse pattern).
func TestInferStateResetReuse(t *testing.T) {
	lstm := NewLSTM(4, 7, 2, 37)
	im := lstm.Compile()
	xs := randSeq(88, 6, 4)
	st := im.NewState()
	first := make([][]float64, len(xs))
	for tt, x := range xs {
		first[tt] = append([]float64(nil), im.StepInto(st, x)...)
	}
	st.Reset()
	for tt, x := range xs {
		bitsEqual(t, "post-reset step", im.StepInto(st, x), first[tt])
	}
}
