//go:build !linux

package nn

// osYield does nothing where the standard library exposes no thread
// yield; runtime.Gosched is then the whole pause.
func osYield() {}
