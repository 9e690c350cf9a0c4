//go:build race

package nn

// raceBuild reports a race-detector build. Its instrumentation changes
// how the compiler allocates the scalar loops' registers, and with them
// which operand of a multiply or add comes first, so the NaN payload
// that survives where two different NaNs meet (see gateGradSIMD) is not
// the one a plain build's loop keeps.
const raceBuild = true
