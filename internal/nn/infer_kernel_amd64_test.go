//go:build amd64

package nn

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// TestSIMDMatchesScalar runs the same sequences through the kernel with
// the AVX2 backend on and off and demands bitwise-identical outputs —
// the separate-multiply-then-add lane arithmetic must be exactly the
// scalar chain. Skipped on machines without AVX2 (the toggle would test
// scalar against itself).
func TestSIMDMatchesScalar(t *testing.T) {
	if !haveSIMD {
		t.Skip("no AVX2; SIMD path unavailable")
	}
	defer func(v bool) { haveSIMD = v }(haveSIMD)
	for _, sh := range kernelShapes {
		im := NewLSTM(sh.in, sh.hidden, sh.layers, 61)
		xs := randSeq(62, 9, sh.in)

		haveSIMD = true
		simdSt := im.NewState()
		simd := make([][]float64, len(xs))
		for tt, x := range xs {
			simd[tt] = append([]float64(nil), im.StepInto(simdSt, x)...)
		}
		simdFwd := im.Forward(xs)

		haveSIMD = false
		scalSt := im.NewState()
		for tt, x := range xs {
			got := im.StepInto(scalSt, x)
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(simd[tt][j]) {
					t.Fatalf("shape %+v step %d h[%d]: scalar %v != simd %v",
						sh, tt, j, got[j], simd[tt][j])
				}
			}
		}
		scalFwd := im.Forward(xs)
		for tt := range scalFwd {
			for j := range scalFwd[tt] {
				if math.Float64bits(scalFwd[tt][j]) != math.Float64bits(simdFwd[tt][j]) {
					t.Fatalf("shape %+v forward step %d h[%d]: scalar %v != simd %v",
						sh, tt, j, scalFwd[tt][j], simdFwd[tt][j])
				}
			}
		}
	}
}

// trainingBitsShapes are TestTrainingBitsGolden's networks: the small
// Gaussian shapes iBoxML trains at bench scale, a binary (reordering /
// loss) head, and a hidden width of 96 so a layer spans many SIMD
// groups.
var trainingBitsShapes = []struct {
	kind              HeadKind
	in, hidden, layer int
	loss, weights     string // Float64bits of the last loss; SHA-256 of WriteWeights
}{
	{GaussianHead, 5, 7, 2, "40009c695b0fe95e", "d26aff38575dc2420b6ed18dd305bb6d924c40fcdeaddc6b373777816d89012b"},
	{GaussianHead, 5, 16, 2, "3ff7259ab00814e3", "65dd32fde97e352b1dbc6ad1aa805bcf33ecfb35a709ca57fa03dfc727e8ca6c"},
	{BinaryHead, 4, 6, 1, "3fe5f2b7ba42b4a7", "25837da1c562878d1bfc3009e5d58e36c7ef19f7b5b56ec2b3a1a435540a2db1"},
	{GaussianHead, 5, 96, 1, "400142b6aa7ec0b0", "da1347fa080384d2e253681aee94f88e8a430471945f1134b1b24f873f809629"},
}

// TestTrainingBitsGolden pins training to the bit: a few FitSequence +
// Adam rounds over masked sequences, with the SIMD backend on and off,
// must reproduce the recorded loss bits and weight-section hash. The
// values were recorded before training moved onto the packed kernel, so
// any change to the BPTT arithmetic, its summation order or Adam's norm
// order shows here. Recorded on amd64 (math.Exp and friends differ by
// architecture), hence the build tag.
func TestTrainingBitsGolden(t *testing.T) {
	defer func(v bool) { haveSIMD = v }(haveSIMD)
	for _, simd := range []bool{true, false} {
		if simd && !cpuHasAVX2() {
			continue
		}
		haveSIMD = simd
		for _, sh := range trainingBitsShapes {
			name := fmt.Sprintf("simd=%v kind=%d %d→%d×%d", simd, sh.kind, sh.in, sh.hidden, sh.layer)
			m := NewSequenceModel(sh.kind, sh.in, sh.hidden, sh.layer, 41)
			opt := NewAdam(0.01, m.Params())
			var loss float64
			for round := 0; round < 4; round++ {
				T := 9 + 5*round
				xs := randSeq(int64(50+round), T, sh.in)
				ys := randSeq(int64(60+round), 1, T)[0]
				mask := make([]bool, T)
				for i := range mask {
					// Odd rounds also mask the last step, whose gate
					// gradients are then exactly zero.
					mask[i] = i%4 != 2 && (round%2 == 0 || i < T-1)
					if sh.kind == BinaryHead {
						ys[i] = float64(i % 3 % 2)
					}
				}
				var ok bool
				loss, _, ok = m.FitSequence(opt, xs, ys, mask)
				if !ok {
					t.Fatalf("%s: round %d skipped", name, round)
				}
			}
			sum := sha256.Sum256(rawSection(t, m))
			gotLoss, gotW := fmt.Sprintf("%016x", math.Float64bits(loss)), hex.EncodeToString(sum[:])
			if gotLoss != sh.loss || gotW != sh.weights {
				t.Errorf("%s: loss bits %s weights %s; want %s %s", name, gotLoss, gotW, sh.loss, sh.weights)
			}
		}
	}
}
