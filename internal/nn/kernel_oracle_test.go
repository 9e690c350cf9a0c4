package nn

import (
	"fmt"
	"testing"
)

// oracleShapes are TestKernelMatchesWidenedChain's stacks: small
// multi-layer ones (Hidden 7 is one SIMD group and a 3-unit tail), the
// served 96×1 at both input widths, Hidden 13 for a 1-unit scalar tail
// after whole groups, and a 256-wide stack whose layers do not fit in
// L2.
var oracleShapes = []struct{ in, hidden, layers int }{
	{5, 7, 2},
	{5, 16, 2},
	{4, 96, 1},
	{5, 96, 1},
	{6, 13, 2},
	{5, 256, 2},
}

// widened returns layer l's tensors in artifact order (row r =
// g·Hidden + j is gate g of unit j), each weight as the float64 the
// kernels compute with.
func widened(l *InferLayer) (wx, wh, b []float64) {
	ts := [tensorsPerLayer][]float64{}
	for t := range ts {
		ts[t] = make([]float64, l.tensorLen(t))
		l.gather(t, 0, ts[t])
	}
	return ts[tensorWx], ts[tensorWh], ts[tensorB]
}

// chainPre is the historical row-by-row gate pre-activation on the
// widened weights: per row, the initial value (pre[4j+g], or the bias
// when pre is nil), then the input terms k ≥ tailOff ascending, then the
// recurrent terms ascending, one float64 multiply and add each. Its
// result is unit-major, as the kernels write it.
func chainPre(l *InferLayer, x, h, pre []float64, tailOff int) []float64 {
	wx, wh, b := widened(l)
	H, In := l.Hidden, l.In
	out := make([]float64, 4*H)
	for g := 0; g < 4; g++ {
		for j := 0; j < H; j++ {
			r := g*H + j
			s := b[r]
			if pre != nil {
				s = pre[4*j+g]
			}
			for k := tailOff; k < In; k++ {
				s += wx[r*In+k] * x[k]
			}
			for k, hv := range h {
				s += wh[r*H+k] * hv
			}
			out[4*j+g] = s
		}
	}
	return out
}

// chainInputGrad is the historical gradient into a step's input
// (recurrent = false) or previous h (true): dst[k] = Σ_r dPre(r)·W(r)[k]
// over rows in gate-major order on the widened weights, skipping rows
// whose gradient is zero.
func chainInputGrad(l *InferLayer, dPre []float64, recurrent bool) []float64 {
	wx, wh, _ := widened(l)
	w, cols := wx, l.In
	if recurrent {
		w, cols = wh, l.Hidden
	}
	dst := make([]float64, cols)
	for g := 0; g < 4; g++ {
		for j := 0; j < l.Hidden; j++ {
			r := g*l.Hidden + j
			d := dPre[4*j+g]
			if d == 0 {
				continue
			}
			for k := range dst {
				dst[k] += d * w[r*cols+k]
			}
		}
	}
	return dst
}

// TestKernelMatchesWidenedChain pins every LSTM kernel to the historical
// float64 row chain run on the weights as the kernels read them: the
// gate pre-activations of gatePre (layerPreSIMD over whole 4-unit groups
// where the SIMD backend runs, the scalar loop after them) and of
// gatePreScalar alone, plain and resumed from partial sums; the gradient
// into a step's input and previous h (inputGrads: inputGradTSIMD on the
// transposed image where the SIMD backend runs); and a whole step of
// the stack through Split.StepInto with a helper.
func TestKernelMatchesWidenedChain(t *testing.T) {
	for _, sh := range oracleShapes {
		im := NewLSTM(sh.in, sh.hidden, sh.layers, 91)
		for li, l := range im.Layers {
			name := fmt.Sprintf("%dx%dx%d layer %d", sh.in, sh.hidden, sh.layers, li)
			x := randSeq(92, 1, l.In)[0]
			h := randSeq(93, 1, l.Hidden)[0]
			part := randSeq(94, 1, 4*l.Hidden)[0]
			for _, tailOff := range []int{-1, 0, l.In / 2} {
				pre, off := part, tailOff
				if tailOff < 0 {
					pre, off = nil, 0
				}
				want := chainPre(l, x, h, pre, off)
				got := make([]float64, 4*l.Hidden)
				l.gatePre(got, h, x, pre, off, 0, l.Hidden)
				bitsEqual(t, fmt.Sprintf("%s tailOff=%d gatePre", name, tailOff), got, want)
				got = make([]float64, 4*l.Hidden)
				l.gatePreScalar(got, h, x, pre, off, 0, l.Hidden)
				bitsEqual(t, fmt.Sprintf("%s tailOff=%d gatePreScalar", name, tailOff), got, want)
			}

			dPre := randSeq(95, 1, 4*l.Hidden)[0]
			for i := range dPre {
				if i%5 == 2 {
					dPre[i] = 0 // a skipped row, as a masked step leaves them
				}
			}
			img := make([]float32, 4*l.Hidden*(l.In+l.Hidden))
			l.transposeInto(img)
			dst := make([]float64, l.In+l.Hidden)
			l.inputGrads(dPre, dst, img, true)
			bitsEqual(t, name+" inputGrads into x", dst[:l.In], chainInputGrad(l, dPre, false))
			bitsEqual(t, name+" inputGrads into h", dst[l.In:], chainInputGrad(l, dPre, true))
		}

		xs := randSeq(96, 4, sh.in)
		ref := refSequence(refStack(im), xs, make([][]float64, len(xs)))
		sp := NewSplit(nil)
		sp.Recruit(goTry)
		st := im.NewState()
		for tt, x := range xs {
			bitsEqual(t, fmt.Sprintf("%dx%dx%d step %d Split.StepInto", sh.in, sh.hidden, sh.layers, tt),
				sp.StepInto(im, st, x), ref[tt])
		}
		sp.Release()
	}
}

// chainWeightGrad is the historical per-step weight gradient of layer li
// after a backward pass through w: for each step t from the last down,
// every element (unit j, gate g, column c) of the packed gradient takes
// dq_t[4j+g]·v_t[c], with v_t = [1; x_t; h_{t−1}] the step's input row.
func chainWeightGrad(w *bptt, im *InferModel, xs [][]float64, li int) []float64 {
	l := im.Layers[li]
	H, bs := l.Hidden, l.blkStride
	grad := make([]float64, H*bs)
	for t := len(xs) - 1; t >= 0; t-- {
		dq := w.dqs[li][t*4*H : (t+1)*4*H]
		_, _, _, _, _, hPrev := w.step(li, H, t)
		v := append(append([]float64{1}, w.input(im, xs, li, t)...), hPrev...)
		for j := 0; j < H; j++ {
			for c, vc := range v {
				for g := 0; g < 4; g++ {
					grad[j*bs+4*c+g] += dq[4*j+g] * vc
				}
			}
		}
	}
	return grad
}

// TestWeightGradMatchesStepChain pins the deferred, time-blocked weight
// gradient (weightGrad: gradAccSIMD where the SIMD backend runs, the
// scalar loop elsewhere) to the per-step accumulation it replaced, at
// sequence lengths below, at and around multiples of gradBlock, so a
// change to the order in which blocks or steps are summed shows.
func TestWeightGradMatchesStepChain(t *testing.T) {
	for _, sh := range []struct{ in, hidden, layers int }{{5, 7, 2}, {3, 16, 1}, {4, 13, 2}} {
		im := NewLSTM(sh.in, sh.hidden, sh.layers, 23)
		for _, T := range []int{1, gradBlock - 1, gradBlock, gradBlock + 1, 2*gradBlock + 5} {
			xs := randSeq(int64(T), T, sh.in)
			dOut := randSeq(int64(T+1), 1, T*sh.hidden)[0]
			w := &bptt{}
			w.forward(im, xs)
			copy(w.dOut, dOut)
			for _, l := range im.Layers {
				l.w.Grad = nil
			}
			w.backward(im, xs)
			for li, l := range im.Layers {
				bitsEqual(t, fmt.Sprintf("%dx%dx%d T=%d layer %d", sh.in, sh.hidden, sh.layers, T, li),
					l.w.Grad, chainWeightGrad(w, im, xs, li))
			}
		}
	}
}
