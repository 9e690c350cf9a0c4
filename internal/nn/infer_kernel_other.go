//go:build !amd64

package nn

// Portable fallback: no SIMD backend, the scalar loops cover every unit.

const haveSIMD = false

func layerPreSIMD(blocks *float32, x, h, pre, out *float64, nx, nh, groups, xoff, blkBytes int64) {
	panic("nn: layerPreSIMD called without SIMD support")
}

func layerGradSIMD(grad, x, h, dq *float64, nx, nh, groups, blkBytes int64) {
	panic("nn: layerGradSIMD called without SIMD support")
}

func inputGradSIMD(w *float32, dq, dst *float64, n, units, blkBytes int64) {
	panic("nn: inputGradSIMD called without SIMD support")
}

func gateActSIMD(gates, cPrev, c, tanhC, h *float64, groups int64) {
	panic("nn: gateActSIMD called without SIMD support")
}
