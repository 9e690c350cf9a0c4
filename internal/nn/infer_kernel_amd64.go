//go:build amd64

package nn

// SIMD backend selection for the gate pre-activation kernel. The AVX2
// path maps each hidden unit's four interleaved gate rows onto the four
// lanes of a ymm register: lane g runs gate row g's accumulator chain
// with a separate vector multiply and vector add per column (no FMA —
// fused multiply-add rounds once where the scalar chain rounds twice, so
// it would break the bitwise contract). Per-lane arithmetic is therefore
// the exact scalar operation sequence, and SIMD on/off cannot change any
// result bit.
//
// AVX2 support is detected at startup via CPUID/XGETBV rather than build
// tags: GOAMD64=v1 binaries must still run on pre-AVX2 machines, where
// gatePreScalar covers every unit.

var haveSIMD = cpuHasAVX2()

// layerPreSIMD computes gate pre-activations for groups*4 hidden units:
// out[j*4+g] = init + Σ_{k=xoff}^{nx-1} Wx[row(j,g)][k]·x[k]
//   - Σ_{k=0}^{nh-1}    Wh[row(j,g)][k]·h[k]
//
// where init is pre[j*4+g] when pre is non-nil and the packed bias
// otherwise. blocks points at InferLayer.packed (unit-interleaved layout,
// blkBytes bytes per unit block); x is never dereferenced when
// xoff == nx, but must be a valid pointer.
//
//go:noescape
func layerPreSIMD(blocks, x, h, pre, out *float64, nx, nh, groups, xoff, blkBytes int64)

// layerGradSIMD accumulates one step's weight gradients for groups*4
// hidden units: with dq the unit's gate-gradient quad dq[j*4+g],
//
//	grad[bias(j,g)]  += dq[j*4+g]
//	grad[Wx(j,g)][k] += x[k]·dq[j*4+g]   k = 0 … nx−1
//	grad[Wh(j,g)][k] += h[k]·dq[j*4+g]   k = 0 … nh−1
//
// each as one multiply and one add, so per element it is exactly the
// scalar loop (gradAdd). grad points at the layer's packed gradient, laid
// out like its weights.
//
//go:noescape
func layerGradSIMD(grad, x, h, dq *float64, nx, nh, groups, blkBytes int64)

// inputGradSIMD adds dq[4j+g]·W(j,g)[k] into dst[k] for k < n over every
// row, gate-major (r = g·units + j), skipping zero rows: the gradient into
// a step's input (or recurrent) columns, whose weights start at w. See
// inputGrad for the scalar loop it matches bit for bit.
//
//go:noescape
func inputGradSIMD(w, dq, dst *float64, n, units, blkBytes int64)

// cpuHasAVX2 reports whether the CPU and OS support AVX2 (CPUID AVX2 +
// OSXSAVE with XMM/YMM state enabled in XCR0).
func cpuHasAVX2() bool
