package par

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// highWater tracks the number of concurrently running compute segments
// and the maximum ever observed. Tests assert the maximum never exceeds
// the pool's worker count: that is the scheduler's budget invariant.
type highWater struct {
	cur, max atomic.Int64
}

func (h *highWater) enter() {
	c := h.cur.Add(1)
	for {
		m := h.max.Load()
		if c <= m || h.max.CompareAndSwap(m, c) {
			return
		}
	}
}

func (h *highWater) exit() { h.cur.Add(-1) }

// spinWork is a small deterministic busy loop that widens the race
// window between dispatch and completion without adding noise.
func spinWork(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i * i
	}
	return s
}

var spinSink atomic.Int64

// leafValue is the deterministic per-leaf payload; any change shows up
// in the serial-reference comparison.
func leafValue(id int) int { return id*id%9973 + 1 }

// refTree computes the serial reference value of a nested fan-out tree:
// the node at level has widths[level:] levels of children below it
// (level == len(widths) is a leaf). Child ids append a base-64 digit to
// the parent id, so every node's id encodes its path.
func refTree(widths []int, level, id int) int {
	if level == len(widths) {
		return leafValue(id)
	}
	sum := id
	for i := 0; i < widths[level]; i++ {
		sum += refTree(widths, level+1, id*64+i+1)
	}
	return sum
}

// poolTree evaluates the same tree through nested PoolMap calls,
// counting compute segments on hw. A frame exits its segment for the
// duration of its nested PoolMap call — during that window the frame is
// not computing, it is dispatching and helping, and any compute it does
// (inline children) is counted by the children themselves.
func poolTree(p *Pool, hw *highWater, widths []int, level, id int, failID int) (int, error) {
	hw.enter()
	if level == len(widths) {
		spinSink.Add(int64(spinWork(300)))
		v := leafValue(id)
		hw.exit()
		if id == failID {
			return 0, fmt.Errorf("leaf %d failed", id)
		}
		return v, nil
	}
	hw.exit()
	children, err := PoolMap(p, widths[level], func(i int) (int, error) {
		return poolTree(p, hw, widths, level+1, id*64+i+1, failID)
	})
	hw.enter()
	defer hw.exit()
	if err != nil {
		return 0, err
	}
	sum := id
	for _, c := range children {
		sum += c
	}
	return sum, nil
}

// runPoolTree runs the whole tree from an external (non-worker) caller,
// mirroring how the experiment drivers call in. The virtual root is not
// itself a compute segment.
func runPoolTree(p *Pool, hw *highWater, widths []int, failID int) (int, error) {
	out, err := PoolMap(p, widths[0], func(i int) (int, error) {
		return poolTree(p, hw, widths, 1, i+1, failID)
	})
	if err != nil {
		return 0, err
	}
	sum := 0
	for _, v := range out {
		sum += v
	}
	return sum, nil
}

func refRoot(widths []int) int {
	sum := 0
	for i := 0; i < widths[0]; i++ {
		sum += refTree(widths, 1, i+1)
	}
	return sum
}

func TestPoolMapOrdering(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	out, err := PoolMap(p, 100, func(i int) (int, error) {
		spinSink.Add(int64(spinWork(100)))
		return i * i, nil
	})
	if err != nil {
		t.Fatalf("PoolMap: %v", err)
	}
	if len(out) != 100 {
		t.Fatalf("len(out) = %d, want 100", len(out))
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestPoolMapZeroAndNil(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	if out, err := PoolMap(p, 0, func(i int) (int, error) { return i, nil }); out != nil || err != nil {
		t.Fatalf("PoolMap(n=0) = %v, %v; want nil, nil", out, err)
	}
	// A nil pool runs on a pool made for the call, same contract.
	out, err := PoolMap[int](nil, 5, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatalf("PoolMap(nil pool): %v", err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i+1)
		}
	}
}

// TestPoolMapErrorLowestIndex checks Map's error contract on the pool:
// a failure yields a nil slice and the error of the lowest failing
// index, even when higher indexes also fail.
func TestPoolMapErrorLowestIndex(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	failAt := map[int]bool{7: true, 3: true, 12: true}
	out, err := PoolMap(p, 20, func(i int) (int, error) {
		spinSink.Add(int64(spinWork(200)))
		if failAt[i] {
			return 0, fmt.Errorf("item %d failed", i)
		}
		return i, nil
	})
	if out != nil {
		t.Fatalf("out = %v, want nil on error", out)
	}
	if err == nil || err.Error() != "item 3 failed" {
		t.Fatalf("err = %v, want item 3 failed", err)
	}
}

// TestPoolMapNestedError checks that the lowest-index rule composes
// through nesting: the root error is the leftmost failing leaf's.
func TestPoolMapNestedError(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	widths := []int{3, 4, 2}
	// Leftmost leaf of the second top-level subtree: id path 2 → 2·64+1 → ….
	failID := (2*64+1)*64 + 1
	var hw highWater
	_, err := runPoolTree(p, &hw, widths, failID)
	want := fmt.Sprintf("leaf %d failed", failID)
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestPoolMapClosedPool(t *testing.T) {
	p := NewPool(2)
	p.Close()
	out, err := PoolMap(p, 4, func(i int) (int, error) { return i, nil })
	if !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
	if out != nil {
		t.Fatalf("out = %v, want nil", out)
	}
}

// TestPoolMapNestedStress runs randomized fan-out trees (depth ≤ 4,
// width ≤ 32) through nested PoolMap on pools of various sizes and
// asserts, under -race:
//
//   - no deadlock (the test finishes),
//   - the result equals the serial reference (input-ordered results),
//   - concurrently running compute segments never exceed workers.
func TestPoolMapNestedStress(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := NewPool(workers)
			defer p.Close()
			rng := rand.New(rand.NewSource(int64(42 + workers)))
			rounds := 10
			if testing.Short() {
				rounds = 4
			}
			for round := 0; round < rounds; round++ {
				depth := 1 + rng.Intn(4)
				widths := make([]int, depth)
				prod := 1
				for i := range widths {
					maxW := 32
					if c := 2048 / prod; c < maxW {
						maxW = c
					}
					if maxW < 1 {
						maxW = 1
					}
					widths[i] = 1 + rng.Intn(maxW)
					prod *= widths[i]
				}
				var hw highWater
				got, err := runPoolTree(p, &hw, widths, -1)
				if err != nil {
					t.Fatalf("round %d widths %v: %v", round, widths, err)
				}
				if want := refRoot(widths); got != want {
					t.Fatalf("round %d widths %v: got %d, want %d", round, widths, got, want)
				}
				if m := hw.max.Load(); m > int64(workers) {
					t.Fatalf("round %d widths %v: %d concurrent jobs, budget %d", round, widths, m, workers)
				}
			}
		})
	}
}

// TestPoolMapConcurrentExternalCallers hammers one pool from many
// external goroutines at once — the ibox-experiments -parallel shape,
// where whole-figure fan-outs and their nested maps all share the pool.
// The budget must hold across callers, not just within one tree.
func TestPoolMapConcurrentExternalCallers(t *testing.T) {
	const workers = 4
	p := NewPool(workers)
	defer p.Close()
	var hw highWater
	widths := []int{4, 3, 2}
	want := refRoot(widths)
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for c := 0; c < len(errs); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got, err := runPoolTree(p, &hw, widths, -1)
			if err != nil {
				errs[c] = err
				return
			}
			if got != want {
				errs[c] = fmt.Errorf("caller %d: got %d, want %d", c, got, want)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if m := hw.max.Load(); m > workers {
		t.Fatalf("%d concurrent jobs across callers, budget %d", m, workers)
	}
}

// FuzzPoolMapTree fuzzes the tree shape, worker count and error
// injection point, checking the pooled result (or error) against the
// serial reference every time. `go test` runs the seed corpus; `go test
// -fuzz=FuzzPoolMapTree` explores further.
func FuzzPoolMapTree(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(3), uint8(1), uint8(0), uint16(0))
	f.Add(uint8(3), uint8(4), uint8(4), uint8(4), uint8(4), uint16(9999))
	f.Add(uint8(7), uint8(1), uint8(1), uint8(1), uint8(1), uint16(1))
	f.Add(uint8(2), uint8(3), uint8(0), uint8(0), uint8(0), uint16(40))
	f.Fuzz(func(t *testing.T, w, a, b, c, d uint8, errSel uint16) {
		workers := 1 + int(w)%4
		var widths []int
		for _, x := range []uint8{a, b, c, d} {
			if x == 0 {
				break
			}
			widths = append(widths, 1+int(x)%4)
		}
		if len(widths) == 0 {
			return
		}
		// Enumerate leaf ids so errSel can deterministically pick one (or
		// none) to fail; the expected error is the leftmost failing leaf.
		var leaves []int
		var walk func(level, id int)
		walk = func(level, id int) {
			if level == len(widths) {
				leaves = append(leaves, id)
				return
			}
			for i := 0; i < widths[level]; i++ {
				walk(level+1, id*64+i+1)
			}
		}
		for i := 0; i < widths[0]; i++ {
			walk(1, i+1)
		}
		failID := -1
		if int(errSel) < len(leaves) {
			failID = leaves[errSel]
		}

		p := NewPool(workers)
		defer p.Close()
		var hw highWater
		got, err := runPoolTree(p, &hw, widths, failID)
		if failID >= 0 {
			want := fmt.Sprintf("leaf %d failed", failID)
			if err == nil || err.Error() != want {
				t.Fatalf("widths %v failID %d: err = %v, want %q", widths, failID, err, want)
			}
		} else {
			if err != nil {
				t.Fatalf("widths %v: %v", widths, err)
			}
			if want := refRoot(widths); got != want {
				t.Fatalf("widths %v: got %d, want %d", widths, got, want)
			}
		}
		if m := hw.max.Load(); m > int64(workers) {
			t.Fatalf("widths %v: %d concurrent jobs, budget %d", widths, m, workers)
		}
	})
}
