//go:build !amd64

package nn

// Portable fallback: no SIMD backend, gatePreScalar covers every unit.

const haveSIMD = false

func layerPreSIMD(blocks, x, h, pre, out *float64, nx, nh, groups, xoff, blkBytes int64) {
	panic("nn: layerPreSIMD called without SIMD support")
}

func layerGradSIMD(grad, x, h, dq *float64, nx, nh, groups, blkBytes int64) {
	panic("nn: layerGradSIMD called without SIMD support")
}

func inputGradSIMD(w, dq, dst *float64, n, units, blkBytes int64) {
	panic("nn: inputGradSIMD called without SIMD support")
}
