//go:build amd64

package nn

import (
	"fmt"
	"math"
	"testing"
)

// backwardGrads runs one forward and backward pass of im over xs with the
// loss gradients dOut (T × the top layer's width) and returns copies of
// every layer's weight gradient.
func backwardGrads(im *InferModel, xs [][]float64, dOut []float64) [][]float64 {
	for _, l := range im.Layers {
		l.w.Grad = nil
	}
	w := &bptt{}
	w.forward(im, xs)
	copy(w.dOut, dOut)
	w.backward(im, xs)
	out := make([][]float64, len(im.Layers))
	for li, l := range im.Layers {
		out[li] = append([]float64(nil), l.w.Grad...)
	}
	return out
}

// backwardMatches runs backwardGrads with the SIMD backend on and off and
// fails unless every gradient bit agrees.
func backwardMatches(t *testing.T, what string, im *InferModel, xs [][]float64, dOut []float64) {
	t.Helper()
	got, want := withSIMD(func() [][]float64 { return backwardGrads(im, xs, dOut) })
	for li := range want {
		bitsEqual(t, fmt.Sprintf("%s layer %d", what, li), got[li], want[li])
	}
}

// specialDOut returns T×H loss gradients: Gaussian noise, the last two
// steps zero (their gate gradients are then exactly ±0 and their rows
// skipped), and x at step at, unit at, and at every unit of step at+1 —
// so a NaN, ±Inf, ±0 or denormal x reaches the gate gradients alone and
// beside finite neighbours.
func specialDOut(T, H int, x float64, at int) []float64 {
	d := randSeq(int64(7*T+H), 1, T*H)[0]
	for t := max(0, T-2); t < T; t++ {
		clear(d[t*H : (t+1)*H])
	}
	if T > 0 {
		s := at % T
		d[s*H+at%H] = x
		if s+1 < T {
			for j := 0; j < H; j++ {
				d[(s+1)*H+j] = x
			}
		}
	}
	return d
}

// otherNaN is a second quiet NaN payload the kernel checks plant beside
// the value under test, so that where two different NaNs meet in one
// multiply or add the operand order decides which survives.
var otherNaN = math.Float64frombits(0x7ff8000000000bad)

// planted returns n Gaussian values with x at index at and every 5th
// index after it, and otherNaN at index at+2 and every 7th after it.
func planted(seed int64, n int, x float64, at int) []float64 {
	v := randSeq(seed, 1, n)[0]
	for i := at % n; i < n; i += 5 {
		v[i] = x
	}
	for i := (at + 2) % n; i < n; i += 7 {
		v[i] = otherNaN
	}
	return v
}

// kernelBitsEqual is bitsEqual for the kernel checks, except in a
// race-detector build, where the scalar loops' operand order is the
// instrumented compiler's (see raceBuild): there any NaN matches any
// NaN, and every other value still bit for bit.
func kernelBitsEqual(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if !raceBuild {
		bitsEqual(t, what, a, b)
		return
	}
	a, b = append([]float64(nil), a...), append([]float64(nil), b...)
	for _, v := range [][]float64{a, b} {
		for i := range v {
			if math.IsNaN(v[i]) {
				v[i] = otherNaN
			}
		}
	}
	bitsEqual(t, what, a, b)
}

// withSIMD runs f with the SIMD backend on and then off and returns the
// two results.
func withSIMD(f func() [][]float64) (simd, scalar [][]float64) {
	defer func(v bool) { haveSIMD = v }(haveSIMD)
	haveSIMD = true
	simd = f()
	haveSIMD = false
	return simd, f()
}

// kernelsMatch checks each backward kernel against its scalar loop bit
// for bit, with x planted among the inputs (see planted) — gate
// gradients, input rows and weights for gradAcc and inputGrads, every
// operand of gateGrad — for a layer of `in` inputs and H units over a
// block of `steps` steps, then a whole backward pass of a 2-layer stack
// with x in the loss gradients.
func kernelsMatch(t *testing.T, x float64, in, H, steps, at int) {
	t.Helper()
	what := fmt.Sprintf("in=%d H=%d steps=%d x=%x at=%d", in, H, steps, math.Float64bits(x), at)
	l := NewLSTM(in, H, 1, int64(H)).Layers[0]
	n := 1 + in + H
	dq := planted(1, steps*4*H, x, at)
	v := planted(2, steps*n, x, at+1)
	grad0 := planted(3, H*l.blkStride, x, at+3)
	simd, scalar := withSIMD(func() [][]float64 {
		l.w.Grad = append([]float64(nil), grad0...)
		l.gradAcc(dq, v, steps)
		return [][]float64{l.w.Grad}
	})
	kernelBitsEqual(t, what+" gradAcc", simd[0], scalar[0])

	// Weights with x and otherNaN planted (a zero row meets a NaN or
	// infinite weight only if it is not skipped), then all of them x (a
	// NaN row gradient meets a NaN weight everywhere).
	for i := at % len(l.w.w32); i < len(l.w.w32); i += 11 {
		l.w.w32[i] = float32(x)
	}
	for i := (at + 1) % len(l.w.w32); i < len(l.w.w32); i += 13 {
		l.w.w32[i] = float32(otherNaN)
	}
	img := make([]float32, 4*H*(in+H))
	for _, all := range []bool{false, true} {
		if all {
			for i := range l.w.w32 {
				l.w.w32[i] = float32(x)
			}
		}
		for _, withX := range []bool{false, true} {
			simd, scalar = withSIMD(func() [][]float64 {
				l.transposeInto(img)
				dst := planted(4, in+H, 1, 0) // stale values the call must overwrite
				l.inputGrads(dq[:4*H], dst, img, withX)
				if !withX {
					dst = dst[in:]
				}
				return [][]float64{dst}
			})
			kernelBitsEqual(t, fmt.Sprintf("%s all=%v withX=%v inputGrads", what, all, withX), simd[0], scalar[0])
		}
	}

	args := make([][]float64, 9)
	for i := range args {
		size := H
		if i == 0 {
			size = 4 * H
		}
		args[i] = planted(int64(10+i), size, x, at+i)
	}
	simd, scalar = withSIMD(func() [][]float64 {
		a := make([][]float64, len(args))
		for i := range a {
			a[i] = append([]float64(nil), args[i]...)
		}
		dq := make([]float64, 4*H)
		gateGrad(a[0], a[1], a[2], a[3], a[4], a[5], dq, a[6])
		return [][]float64{dq, a[5]}
	})
	kernelBitsEqual(t, what+" gateGrad dq", simd[0], scalar[0])
	kernelBitsEqual(t, what+" gateGrad dc", simd[1], scalar[1])

	im := NewLSTM(in, H, 2, int64(in))
	xs := randSeq(int64(steps), steps, in)
	backwardMatches(t, what+" backward", im, xs, specialDOut(steps, H, x, at))
}

// backwardSpecials are the values FuzzBackwardKernels is seeded with and
// TestBackwardKernelsMatchScalar plants: signed zeros, denormals, the
// infinities, NaNs with and without a payload, and ordinary magnitudes.
var backwardSpecials = []uint64{
	0, 0x8000000000000000,
	1, 0x800fffffffffffff, 0x0000000000012345,
	0x7ff0000000000000, 0xfff0000000000000,
	0x7ff8000000000000, 0xfff8000000000123, 0x7ff0000000000001,
	0x3ff0000000000000, 0xc059000000000000, 0x7fefffffffffffff,
}

// TestBackwardKernelsMatchScalar checks every backward kernel against
// its scalar loop (kernelsMatch) at widths with every residue mod 4 and
// across gradAccSIMD's 12-, 4- and 1-column tiles and inputGradTSIMD's
// 16-, 4- and 1-column blocks, over one step, a few, and blocks that are
// and are not multiples of gradBlock, with each of backwardSpecials
// planted; then it runs whole backward passes of longer sequences.
func TestBackwardKernelsMatchScalar(t *testing.T) {
	if !haveSIMD {
		t.Skip("no AVX2+FMA; SIMD path unavailable")
	}
	shapes := []struct{ in, hidden int }{{3, 5}, {4, 6}, {2, 7}, {5, 16}, {6, 13}, {5, 37}, {1, 1}, {4, 12}}
	for i, bits := range backwardSpecials {
		x := math.Float64frombits(bits)
		for j, sh := range shapes {
			for _, steps := range []int{1, 2, 7, gradBlock} {
				kernelsMatch(t, x, sh.in, sh.hidden, steps, i+j)
			}
		}
	}
	for _, sh := range []struct{ in, hidden, layers int }{{3, 5, 2}, {5, 16, 2}, {6, 13, 1}} {
		im := NewLSTM(sh.in, sh.hidden, sh.layers, 17)
		for _, T := range []int{gradBlock + 1, 3*gradBlock - 5} {
			xs := randSeq(int64(T), T, sh.in)
			for i, bits := range backwardSpecials {
				backwardMatches(t, fmt.Sprintf("%dx%dx%d T=%d x=%x", sh.in, sh.hidden, sh.layers, T, bits),
					im, xs, specialDOut(T, sh.hidden, math.Float64frombits(bits), 3*i+1))
			}
		}
	}
}

// FuzzBackwardKernels is kernelsMatch over an arbitrary value, input
// width (1–8), hidden width (1–40), block length (1–2·gradBlock) and
// position.
func FuzzBackwardKernels(f *testing.F) {
	for i, bits := range backwardSpecials {
		f.Add(bits, uint8(i), uint8(3*i), uint8(5*i), uint16(i))
	}
	f.Fuzz(func(t *testing.T, bits uint64, in, hidden, steps uint8, at uint16) {
		if !haveSIMD {
			t.Skip("no AVX2+FMA; SIMD path unavailable")
		}
		kernelsMatch(t, math.Float64frombits(bits), 1+int(in)%8, 1+int(hidden)%40, 1+int(steps)%(2*gradBlock), int(at))
	})
}

// BenchmarkBackwardKernels times one call of each backward kernel with
// the SIMD backend on and off: inputGrads into a step's previous h
// (the image's recurrent columns), gradAcc over a full block of steps,
// and gateGrad, at the bench-scale, served and paper widths.
func BenchmarkBackwardKernels(b *testing.B) {
	defer func(v bool) { haveSIMD = v }(haveSIMD)
	for _, H := range []int{16, 96, 256} {
		l := NewLSTM(H, H, 1, 3).Layers[0]
		l.w.grad()
		n := 1 + 2*H
		dq := randSeq(4, 1, gradBlock*4*H)[0]
		v := randSeq(5, 1, gradBlock*n)[0]
		img := make([]float32, 4*H*2*H)
		l.transposeInto(img)
		dst := make([]float64, 2*H)
		gates, dc, dh := randSeq(6, 1, 4*H)[0], make([]float64, H), make([]float64, H)
		for _, simd := range []bool{true, false} {
			if simd && !cpuHasAVX2FMA() {
				continue
			}
			haveSIMD = simd
			b.Run(fmt.Sprintf("inputGrads/H=%d/simd=%v", H, simd), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					l.inputGrads(dq, dst, img, false)
				}
			})
			b.Run(fmt.Sprintf("gradAcc/H=%d/simd=%v", H, simd), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					l.gradAcc(dq, v, gradBlock)
				}
			})
			b.Run(fmt.Sprintf("gateGrad/H=%d/simd=%v", H, simd), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					gateGrad(gates, dst[:H], dst[H:], dst[:H], dst[H:], dc, dq, dh)
				}
			})
		}
	}
}
