//go:build !race

package nn

// raceBuild reports a race-detector build (see race_test.go).
const raceBuild = false
