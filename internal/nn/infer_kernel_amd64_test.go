//go:build amd64

package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// TestSIMDMatchesScalar runs the same sequences through the kernels with
// the SIMD backend on and off and demands bitwise-identical outputs —
// the separate-multiply-then-add lane arithmetic must be exactly the
// scalar chain, and the vector gate activations exactly math.Exp and
// math.Tanh. Skipped on machines without AVX2+FMA (the toggle would test
// scalar against itself).
func TestSIMDMatchesScalar(t *testing.T) {
	if !haveSIMD {
		t.Skip("no AVX2+FMA; SIMD path unavailable")
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
	}
}

// trainingBitsShapes are TestTrainingBitsGolden's networks: the small
// Gaussian shapes iBoxML trains at bench scale, a binary (reordering /
// loss) head, a hidden width of 96 so a layer spans many SIMD groups,
// and a 256×2 stack whose layers' weights and gradients do not fit in
// L2.
var trainingBitsShapes = []struct {
	kind              HeadKind
	in, hidden, layer int
	loss, weights     string // Float64bits of the last loss; SHA-256 of WriteWeights
}{
	{GaussianHead, 5, 7, 2, "40009c6950ede0aa", "612a6d9764c37d5e4a6780ecd1ba22bb9a0c7a8a32badfcaeb71ab03f16e4b76"},
	{GaussianHead, 5, 16, 2, "3ff7259aad4c63af", "ed1ad0a58b7d2b4a8d552852e557c949ae232d836cbf21cc63784b14cfa48fe8"},
	{BinaryHead, 4, 6, 1, "3fe5f2b7ba8519f7", "92d5e880e2f4034f554ce7ebfa06a31cbcb33f3492183bc63a783930bb2b1c63"},
	{GaussianHead, 5, 96, 1, "400142b6a885e1bd", "60b8982a3543b5680746ad927a8a3dbac44ee94efb2fa8846455adb64fed6f71"},
	{GaussianHead, 5, 256, 2, "40042c341e573d4f", "4eb53b343755994a8bdfe2213b59a0e2370066d8337b2656a6992ae28425dc25"},
}

// TestTrainingBitsGolden pins training to the bit: a few FitSequence +
// Adam rounds over masked sequences, with the SIMD backend on and off,
// must reproduce the recorded loss bits and weight-section hash. The
// values were recorded when LSTM weights became float32 (the BPTT
// arithmetic, its summation orders and Adam's norm order had been pinned
// unchanged since before training moved onto the packed kernel), so any
// change to that arithmetic, those orders or where Adam rounds shows
// here. Recorded on amd64 with FMA: math.Exp's bits differ by
// architecture, hence the build tag, and on amd64 between CPUs with and
// without FMA (it takes an FMA instruction sequence when the CPU has
// one), hence the skip.
func TestTrainingBitsGolden(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("recorded where math.Exp takes its FMA path; this CPU lacks AVX2+FMA")
	}
	defer func(v bool) { haveSIMD = v }(haveSIMD)
	for _, simd := range []bool{true, false} {
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

// gradientBits are TestGradientBitsGolden's records, one row per
// trainingBitsShapes entry and one column per sequence length in
// gradientBitsSteps: the first 16 hex digits of a SHA-256 over the loss
// and every float64 gradient after one TrainSequence.
var gradientBits = [][3]string{
	{"4fd083b80f4eeb7a", "c43743f42d88a5eb", "bece84714511295a"},
	{"4009948af6269b46", "708dbcfacb8af4db", "1b247d5b29dd2526"},
	{"41b7cfb6902770f3", "21633b91272cf33c", "27359a99a1e6ad2c"},
	{"86ea4795bd9c6fc7", "b3d033582e14abf7", "3d790b582c91dd8d"},
	{"1aed1cf1828e2ea0", "3af0786499ee42e6", "4dfe698af81d5c29"},
}

// gradientBitsSteps are TestGradientBitsGolden's sequence lengths: one
// step, and lengths that end mid-block for the weight gradient's
// gradBlock-step blocks.
var gradientBitsSteps = [3]int{1, 45, 130}

// TestGradientBitsGolden pins the float64 gradients themselves, which
// TestTrainingBitsGolden sees only through Adam's float32 weights: an
// update rounded to float32 absorbs a last-bit change in a gradient, so
// a reordered sum can pass that golden (and the experiment goldens)
// unseen. One TrainSequence per shape and length, with the SIMD backend
// on and off, must reproduce the recorded hash of its loss and of every
// parameter's gradient, in Params order. The records were taken before
// the backward kernels kept their sums in registers.
func TestGradientBitsGolden(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("recorded where math.Exp takes its FMA path; this CPU lacks AVX2+FMA")
	}
	defer func(v bool) { haveSIMD = v }(haveSIMD)
	for _, simd := range []bool{true, false} {
		haveSIMD = simd
		for i, sh := range trainingBitsShapes {
			for k, T := range gradientBitsSteps {
				m := NewSequenceModel(sh.kind, sh.in, sh.hidden, sh.layer, 41)
				xs := randSeq(int64(70+T), T, sh.in)
				ys := randSeq(int64(80+T), 1, T)[0]
				mask := make([]bool, T)
				for j := range mask {
					mask[j] = j%4 != 2
					if sh.kind == BinaryHead {
						ys[j] = float64(j % 3 % 2)
					}
				}
				h := sha256.New()
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(m.TrainSequence(xs, ys, mask)))
				h.Write(b[:])
				for _, p := range m.Params() {
					for _, g := range p.Grad {
						binary.LittleEndian.PutUint64(b[:], math.Float64bits(g))
						h.Write(b[:])
					}
				}
				if got := hex.EncodeToString(h.Sum(nil))[:16]; got != gradientBits[i][k] {
					t.Errorf("simd=%v kind=%d %d→%d×%d T=%d: gradient hash %s, want %s",
						simd, sh.kind, sh.in, sh.hidden, sh.layer, T, got, gradientBits[i][k])
				}
			}
		}
	}
}

// activateMatches runs activate on copies of gates and cPrev with the
// SIMD backend on and off, in training's form (a separate c, tanh c
// stored) and inference's (c updated in place, no tanh c), and fails
// unless every output — the activated gates, c, tanh c and h — is
// bitwise identical.
func activateMatches(t *testing.T, what string, gates, cPrev []float64) {
	t.Helper()
	defer func(v bool) { haveSIMD = v }(haveSIMD)
	H := len(cPrev)
	run := func(simd, inPlace bool) [][]float64 {
		haveSIMD = simd
		g := append([]float64(nil), gates...)
		cp := append([]float64(nil), cPrev...)
		c, tc, h := cp, []float64(nil), make([]float64, H)
		if !inPlace {
			c, tc = make([]float64, H), make([]float64, H)
		}
		activate(g, cp, c, tc, h)
		return [][]float64{g, c, tc, h}
	}
	for _, inPlace := range []bool{false, true} {
		want, got := run(false, inPlace), run(true, inPlace)
		for i, name := range []string{"gates", "c", "tanh c", "h"} {
			bitsEqual(t, fmt.Sprintf("%s in-place=%v %s", what, inPlace, name), got[i], want[i])
		}
	}
}

// TestGateActivationMatchesScalar pins the vector gate activations to
// the scalar loop bit for bit at every kernelShapes width, on gate and
// cell values scaled so that every branch of sigmoid, math.Tanh and
// math.Exp runs: small and mid tanh, saturated tanh, and exp's
// denormal and underflow results.
func TestGateActivationMatchesScalar(t *testing.T) {
	if !haveSIMD {
		t.Skip("no AVX2+FMA; SIMD path unavailable")
	}
	for _, sh := range kernelShapes {
		for i, scale := range []float64{1, 8, 400} {
			gates := randSeq(int64(70+i), 1, 4*sh.hidden)[0]
			cPrev := randSeq(int64(80+i), 1, sh.hidden)[0]
			for j := range gates {
				gates[j] *= scale
			}
			for j := range cPrev {
				cPrev[j] *= scale
			}
			activateMatches(t, fmt.Sprintf("hidden=%d scale=%v", sh.hidden, scale), gates, cPrev)
		}
	}
}

// FuzzGateActivation feeds one arbitrary float64 bit pattern to every
// gate slot and to the cell, one unit at a time beside finite
// neighbours, then to all five slots of one unit at once, and demands
// SIMD ≡ scalar bitwise. Each unit sees a single NaN payload, because
// where two different NaNs meet the survivor follows operand order,
// which the source does not fix (see gateActSIMD). The seeds sit on the
// branch edges of sigmoid, math.Tanh and math.Exp.
func FuzzGateActivation(f *testing.F) {
	const maxLog = 8.8029691931113054295988e+01 // math/tanh.go's MAXLOG
	for _, x := range []float64{
		0, math.Copysign(0, -1),
		0.625, -0.625, math.Nextafter(0.625, 0), -math.Nextafter(0.625, 0),
		0.5 * maxLog, -0.5 * maxLog,
		math.Nextafter(0.5*maxLog, 0), math.Nextafter(0.5*maxLog, 100),
		-math.Nextafter(0.5*maxLog, 0), -math.Nextafter(0.5*maxLog, 100),
		708, -708, 709, -709, 710, -710, -745,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1023, -0x1p-1030,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(math.Float64bits(x))
	}
	f.Add(uint64(0x7ff0000000000001)) // a signalling NaN
	f.Add(uint64(0xfff8000000000123)) // a negative NaN with a payload
	f.Fuzz(func(t *testing.T, bits uint64) {
		if !haveSIMD {
			t.Skip("no AVX2+FMA; SIMD path unavailable")
		}
		x := math.Float64frombits(bits)
		neighbours := [5]float64{0.3, -1.7, 2.5, -0.4, 0.9}
		const units = 24 // 20 with x in one slot, 4 with x everywhere
		gates, cPrev := make([]float64, 4*units), make([]float64, units)
		for u := 0; u < units; u++ {
			slots := neighbours
			if u < 20 {
				slots[u%5] = x
			} else {
				slots = [5]float64{x, x, x, x, x}
			}
			copy(gates[4*u:4*u+4], slots[:4])
			cPrev[u] = slots[4]
		}
		activateMatches(t, fmt.Sprintf("x=%x", bits), gates, cPrev)
	})
}

// BenchmarkGateActivation times one paper-width (256-unit) layer's gate
// activations with the SIMD backend on and off.
func BenchmarkGateActivation(b *testing.B) {
	defer func(v bool) { haveSIMD = v }(haveSIMD)
	const H = 256
	pre := randSeq(5, 1, 4*H)[0]
	gates := make([]float64, 4*H)
	c, h := randSeq(6, 1, H)[0], make([]float64, H)
	for _, simd := range []bool{true, false} {
		if simd && !cpuHasAVX2FMA() {
			continue
		}
		b.Run(fmt.Sprintf("simd=%v", simd), func(b *testing.B) {
			haveSIMD = simd
			for i := 0; i < b.N; i++ {
				copy(gates, pre)
				activate(gates, c, c, nil, h)
			}
		})
	}
}

// BenchmarkLayerPre times the SIMD gate pre-activation kernel alone, in
// picoseconds per weight (one widen, multiply and add), over layers whose
// float32 weights sit in L1 (in 32 × H 32, ≈33 KB), in L2 (64 × 64,
// ≈130 KB; 5 × 256, ≈1.1 MB), at the L2/L3 edge (256 × 256, ≈2.1 MB) and
// in L3 (the paper-scale 256×4 stack, ≈7.4 MB, one step's four layers).
// A cost that stays flat from L1 to L3 says the kernel is bound by the
// rate it issues instructions at, not by the bandwidth its weights
// stream at.
func BenchmarkLayerPre(b *testing.B) {
	if !cpuHasAVX2FMA() {
		b.Skip("no AVX2+FMA")
	}
	for _, sh := range []struct {
		name               string
		in, hidden, layers int
	}{
		{"32x32", 32, 32, 1}, {"64x64", 64, 64, 1}, {"5x256", 5, 256, 1},
		{"256x256", 256, 256, 1}, {"256x4", 5, 256, 4},
	} {
		im := NewLSTM(sh.in, sh.hidden, sh.layers, 83)
		weights, bytes := 0, 0
		xs := make([][]float64, len(im.Layers))
		for i, l := range im.Layers {
			weights += 4 * l.Hidden * (l.In + l.Hidden)
			bytes += 4 * len(l.w.w32)
			xs[i] = randSeq(84+int64(i), 1, l.In)[0]
		}
		h := randSeq(90, 1, sh.hidden)[0]
		dst := make([]float64, 4*sh.hidden)
		b.Run(fmt.Sprintf("%s/%dKB", sh.name, bytes>>10), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for li, l := range im.Layers {
					l.gatePre(dst, h, xs[li], nil, 0, 0, l.Hidden)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())*1000/(float64(b.N)*float64(weights)), "ps/weight")
		})
	}
}
