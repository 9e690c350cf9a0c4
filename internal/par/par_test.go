package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ibox/internal/leakcheck"
	"ibox/internal/sim"
)

// mapMode is one of the three ways Map runs, with the most items it may
// run at once.
type mapMode struct {
	name  string
	opts  Options
	width int
}

// mapModes returns the serial reference loop, a pool Map makes for the
// call, and a shared pool the caller owns (closed when t ends).
func mapModes(t *testing.T) []mapMode {
	shared := NewPool(4)
	t.Cleanup(shared.Close)
	return []mapMode{
		{"serial", Options{Serial: true}, 1},
		{"own pool", Options{}, runtime.GOMAXPROCS(0)},
		{"shared pool", Options{Pool: shared}, shared.Workers()},
	}
}

// TestMapOrder verifies results land at their input index regardless of
// completion order (later items finish first via decreasing sleeps).
func TestMapOrder(t *testing.T) {
	n := 32
	for _, m := range mapModes(t) {
		out, err := Map(n, m.opts, func(i int) (int, error) {
			time.Sleep(time.Duration(n-i) * time.Millisecond / 4)
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != n {
			t.Fatalf("%s: got %d results, want %d", m.name, len(out), n)
		}
		for i, v := range out {
			if v != i*i {
				t.Errorf("%s: out[%d] = %d, want %d", m.name, i, v, i*i)
			}
		}
	}
}

// TestMapSerialParallelIdentical is the package's core contract: with
// per-index derived seeds, the serial loop and the pool are
// byte-identical, whatever the pool's width.
func TestMapSerialParallelIdentical(t *testing.T) {
	work := func(i int) (float64, error) {
		// Seed derived from the index before dispatch — the repository's
		// seed-derivation rule.
		rng := sim.NewRand(42, int64(i))
		s := 0.0
		for k := 0; k < 100; k++ {
			s += rng.Float64()
		}
		return s, nil
	}
	serial, err := Map(64, Options{Serial: true}, work)
	if err != nil {
		t.Fatal(err)
	}
	modes := mapModes(t)[1:]
	for _, w := range []int{2, 3, 8, 64} {
		p := NewPool(w)
		defer p.Close()
		modes = append(modes, mapMode{name: fmt.Sprintf("pool of %d", w), opts: Options{Pool: p}})
	}
	for _, m := range modes {
		parallel, err := Map(64, m.opts, work)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("%s: out[%d] = %v, want %v", m.name, i, parallel[i], serial[i])
			}
		}
	}
}

// TestMapLowestIndexError verifies the error contract: the returned error
// is the one a serial loop would have stopped at.
func TestMapLowestIndexError(t *testing.T) {
	for _, m := range mapModes(t) {
		out, err := Map(40, m.opts, func(i int) (int, error) {
			if i == 7 || i == 23 {
				// The higher index fails faster; lowest must still win.
				if i == 7 {
					time.Sleep(20 * time.Millisecond)
				}
				return 0, fmt.Errorf("item %d failed", i)
			}
			return i, nil
		})
		if out != nil {
			t.Errorf("%s: expected nil results on error", m.name)
		}
		if err == nil || err.Error() != "item 7 failed" {
			t.Errorf("%s: err = %v, want item 7's", m.name, err)
		}
	}
}

// TestMapBoundedConcurrency verifies Map never runs more items at once
// than its mode allows: one serially, the pool's width otherwise.
func TestMapBoundedConcurrency(t *testing.T) {
	for _, m := range mapModes(t) {
		var inFlight, peak atomic.Int64
		_, err := Map(24, m.opts, func(i int) (struct{}, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			inFlight.Add(-1)
			return struct{}{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p > int64(m.width) {
			t.Errorf("%s: peak concurrency %d exceeds %d", m.name, p, m.width)
		}
	}
}

// TestForEach verifies index-disjoint writes and error propagation.
func TestForEach(t *testing.T) {
	for _, m := range mapModes(t) {
		out := make([]int, 50)
		if err := ForEach(50, m.opts, func(i int) error {
			out[i] = i + 1
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i+1 {
				t.Errorf("%s: out[%d] = %d, want %d", m.name, i, v, i+1)
			}
		}
		sentinel := errors.New("boom")
		if err := ForEach(10, m.opts, func(i int) error {
			if i >= 4 {
				return sentinel
			}
			return nil
		}); !errors.Is(err, sentinel) {
			t.Errorf("%s: err = %v, want %v", m.name, err, sentinel)
		}
	}
}

// TestMapEmpty covers the degenerate sizes.
func TestMapEmpty(t *testing.T) {
	for _, m := range mapModes(t) {
		out, err := Map(0, m.opts, func(i int) (int, error) { return 0, nil })
		if err != nil || out != nil {
			t.Errorf("%s: n=0: got (%v, %v), want (nil, nil)", m.name, out, err)
		}
		out, err = Map(1, m.opts, func(i int) (int, error) { return 9, nil })
		if err != nil || len(out) != 1 || out[0] != 9 {
			t.Errorf("%s: n=1: got (%v, %v)", m.name, out, err)
		}
	}
}

// TestMapOwnPoolLeavesNoGoroutine: the pool a Map without one makes is
// closed before Map returns, on success, on failure and nested, so no
// pool worker outlives the call.
func TestMapOwnPoolLeavesNoGoroutine(t *testing.T) {
	if _, err := Map(16, Options{}, func(i int) (int, error) {
		inner, err := Map(4, Options{}, func(j int) (int, error) { return i + j, nil })
		return len(inner), err
	}); err != nil {
		t.Fatal(err)
	}
	if err := ForEach(16, Options{}, func(i int) error {
		if i == 3 {
			return errors.New("boom")
		}
		return nil
	}); err == nil {
		t.Fatal("failing ForEach returned no error")
	}
	// Pool workers are the only goroutines this package starts; their
	// stacks name NewPool.
	if err := leakcheck.Check("ibox/internal/par.NewPool"); err != nil {
		t.Fatal(err)
	}
}
