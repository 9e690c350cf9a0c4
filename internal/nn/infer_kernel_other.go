//go:build !amd64

package nn

// Portable fallback: no SIMD backend, the scalar loops cover every unit.

const haveSIMD = false

func layerPreSIMD(blocks *float32, x, h, pre, out *float64, nx, nh, groups, xoff, blkBytes int64) {
	panic("nn: layerPreSIMD called without SIMD support")
}

func gradAccSIMD(grad, dq, v *float64, units, n, steps int64) {
	panic("nn: gradAccSIMD called without SIMD support")
}

func inputGradTSIMD(img *float32, dq, dst *float64, cols, rowBytes, units int64) {
	panic("nn: inputGradTSIMD called without SIMD support")
}

func gateGradSIMD(gates, tanhC, cPrev, dhRec, carry, dc, dq *float64, groups int64) {
	panic("nn: gateGradSIMD called without SIMD support")
}

func gateActSIMD(gates, cPrev, c, tanhC, h *float64, groups int64) {
	panic("nn: gateActSIMD called without SIMD support")
}
