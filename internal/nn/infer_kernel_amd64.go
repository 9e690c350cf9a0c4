//go:build amd64

package nn

// SIMD backend selection for the LSTM kernels. The AVX2 gate
// pre-activation path maps each hidden unit's four interleaved gate rows
// onto the four lanes of a ymm register: a column's float32 weight quad
// widens exactly into four float64 lanes (VCVTPS2PD), and lane g runs
// gate row g's accumulator chain with a separate vector multiply and
// vector add per column (no FMA — fused multiply-add rounds once where
// the scalar chain rounds twice, so it would break the bitwise contract).
// Per-lane arithmetic is therefore the exact scalar operation sequence,
// and SIMD on/off cannot change any result bit.
//
// The gate activation kernel (gateActSIMD) reproduces math.Exp, which on
// amd64 takes an FMA instruction sequence exactly when the CPU has AVX
// and FMA; so the backend requires AVX2 *and* FMA, and then every kernel
// matches the scalar code bit for bit. Support is detected at startup via
// CPUID/XGETBV rather than build tags: GOAMD64=v1 binaries must still run
// on older machines, where the scalar loops cover every unit.

var haveSIMD = cpuHasAVX2FMA()

// layerPreSIMD computes gate pre-activations for groups*4 hidden units:
// out[j*4+g] = init + Σ_{k=xoff}^{nx-1} Wx[row(j,g)][k]·x[k]
//   - Σ_{k=0}^{nh-1}    Wh[row(j,g)][k]·h[k]
//
// where init is pre[j*4+g] when pre is non-nil and the packed bias
// otherwise, and every weight is widened to float64. blocks points at the
// layer's float32 weights (unit-interleaved layout, blkBytes bytes per
// unit block); x is never dereferenced when xoff == nx, but must be a
// valid pointer.
//
//go:noescape
func layerPreSIMD(blocks *float32, x, h, pre, out *float64, nx, nh, groups, xoff, blkBytes int64)

// gradAccSIMD adds a block of steps' weight gradients to a layer's
// packed float64 gradient: for every unit j < units and column c < n,
// grad[4n·j + 4c + g] += dq[t·4·units + 4j + g]·v[t·n + c] for t = steps−1
// down to 0, each as one multiply (the gate gradient first) and one add
// (the product first): exactly gradAcc's scalar loop.
//
//go:noescape
func gradAccSIMD(grad, dq, v *float64, units, n, steps int64)

// inputGradTSIMD sets dst[k] = Σ_r dq[4j+g]·img(r)[k] for k < cols over
// the rows r = g·units + j of a transposed weight image (rowBytes apart,
// img at the first column wanted), gate-major, skipping rows whose
// gradient is ±0. See inputGrad for the scalar loop it matches bit for
// bit.
//
//go:noescape
func inputGradTSIMD(img *float32, dq, dst *float64, cols, rowBytes, units int64)

// gateGradSIMD computes the gate pre-activation gradients of groups*4
// hidden units into dq and carries their cell gradients dc back a step:
// exactly gateGrad's scalar loop, operand orders included.
//
//go:noescape
func gateGradSIMD(gates, tanhC, cPrev, dhRec, carry, dc, dq *float64, groups int64)

// gateActSIMD applies the LSTM nonlinearities to groups*4 hidden units:
// per unit j, with the gate pre-activations gates[4j:4j+4] (i|f|g|o),
// it stores the activated gates back in place, c[j] = f·cPrev[j] + i·g,
// tanhC[j] = tanh c[j] (skipped when tanhC is nil) and h[j] = o·tanh
// c[j] — exactly activate's scalar loop, math.Exp and math.Tanh
// included. c may alias cPrev.
//
//go:noescape
func gateActSIMD(gates, cPrev, c, tanhC, h *float64, groups int64)

// cpuHasAVX2FMA reports whether the CPU and OS support AVX2 and FMA
// (CPUID AVX2 + AVX + FMA + OSXSAVE with XMM/YMM state enabled in XCR0).
func cpuHasAVX2FMA() bool
