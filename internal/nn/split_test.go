package nn

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// goTry hands a helper job to a fresh goroutine, standing in for
// par.Pool.TryGo with an always-idle worker.
func goTry(f func()) bool {
	go f()
	return true
}

// helperPlan is one way a helper may come and go during a split unroll.
type helperPlan struct {
	name   string
	arrive int   // step before which the owner recruits; -1: never
	polls  int64 // idle polls after which the helper leaves; -1: stays
}

var helperPlans = []helperPlan{
	{"present", 0, -1},
	{"never arriving", -1, -1},
	{"arriving late", 3, -1},
	{"leaving", 0, 5},
}

// splitMatchesStep steps xs through im twice, with StepInto and with a
// Split whose helper follows plan, and fails unless every step leaves
// both states' h and c bitwise equal. upto >= 0 resumes layer 0 from
// its partial row sums over the input prefix [0, upto) (prefixSums) on
// the split side, so those sums feed the upper half too. It returns the
// upper halves published and those the helper ran.
func splitMatchesStep(t *testing.T, what string, im *InferModel, xs [][]float64, upto int, plan helperPlan) (halves, helped int) {
	t.Helper()
	var polls atomic.Int64
	polls.Store(plan.polls)
	sp := NewSplit(func() bool { return plan.polls >= 0 && polls.Add(-1) < 0 })
	defer sp.Release() // on failure too: no helper outlives the test
	st, ref := im.NewState(), im.NewState()
	for tt, x := range xs {
		if tt == plan.arrive && !sp.Recruit(goTry) {
			t.Fatalf("%s: recruit refused", what)
		}
		var pre []float64
		tailOff := 0
		if upto >= 0 {
			pre, tailOff = prefixSums(t, im, x, upto), upto
		}
		im.stepLane(st, x, pre, tailOff, sp)
		im.StepInto(ref, x)
		bitsEqual(t, fmt.Sprintf("%s step %d h", what, tt), st.h, ref.h)
		bitsEqual(t, fmt.Sprintf("%s step %d c", what, tt), st.c, ref.c)
	}
	sp.Release()
	if sp.helping.Load() {
		t.Fatalf("%s: a helper job outlived Release", what)
	}
	if plan.arrive < 0 && sp.Helped != 0 {
		t.Fatalf("%s: %d halves helped with no helper", what, sp.Helped)
	}
	return sp.Halves, sp.Helped
}

// TestSplitStepMatchesStep pins the split step to StepInto's bits on
// every kernelShapes entry — Hidden not a multiple of 8, and Hidden < 8
// where nothing splits — whether the helper is there from the first
// step, never comes, comes late or leaves partway, plain and resuming
// from layer-0 partial sums. Which half the helper runs depends on
// scheduling; the bits may not. So that a helper run is compared on
// every machine and under any load, the owner of each unroll waits at
// its first claim until an attached helper has claimed that half (or
// left).
func TestSplitStepMatchesStep(t *testing.T) {
	holdFirstClaim(t)
	helped := 0
	for _, sh := range kernelShapes {
		im := NewLSTM(sh.in, sh.hidden, sh.layers, 71)
		xs := randSeq(72, 6, sh.in)
		for _, plan := range helperPlans {
			for _, upto := range []int{-1, 0, sh.in / 2} {
				what := fmt.Sprintf("%dx%dx%d %s upto=%d", sh.in, sh.hidden, sh.layers, plan.name, upto)
				h, n := splitMatchesStep(t, what, im, xs, upto, plan)
				want := 0
				if splitAt(sh.hidden) > 0 {
					want = len(xs) * sh.layers
				}
				if h != want {
					t.Fatalf("%s: %d upper halves published, want %d", what, h, want)
				}
				helped += n
			}
		}
	}
	if helped == 0 {
		t.Fatal("the helper ran no upper half in any unroll")
	}
}

// holdFirstClaim makes the owner of every Split, until t ends, wait
// before claiming back its first published half while a helper is
// attached, until the helper has claimed it or left. A helper that
// never claims fails t after ten seconds.
func holdFirstClaim(t *testing.T) {
	beforeClaim = func(sp *Split) {
		deadline := time.Now().Add(10 * time.Second)
		for sp.Helped == 0 && sp.helping.Load() && sp.state.Load() == taskOpen {
			if time.Now().After(deadline) {
				t.Fatal("an attached helper claimed no open half in 10s")
			}
			pause()
		}
	}
	t.Cleanup(func() { beforeClaim = nil })
}

// TestSplitRecruitsOneHelper: Recruit with a helper attached attaches
// no second one, and after the helper leaves the owner can recruit
// again.
func TestSplitRecruitsOneHelper(t *testing.T) {
	var leave atomic.Bool
	sp := NewSplit(leave.Load)
	defer sp.Release()
	offers := 0
	try := func(f func()) bool {
		offers++
		return goTry(f)
	}
	sp.Recruit(try)
	sp.Recruit(try)
	if offers != 1 {
		t.Fatalf("%d helper jobs offered with one attached, want 1", offers)
	}
	leave.Store(true)
	for sp.helping.Load() {
		runtime.Gosched()
	}
	leave.Store(false)
	if !sp.Recruit(try) || offers != 2 {
		t.Fatalf("re-recruit after the helper left: %d helper jobs offered, want 2", offers)
	}
	refused := NewSplit(nil)
	if refused.Recruit(func(func()) bool { return false }) || refused.helping.Load() {
		t.Fatal("a refused offer left a helper attached")
	}
	refused.Release() // returns at once: no helper to wait for
}

// BenchmarkStepSplit times one timestep of the paper-scale 256×4 stack
// and of the small 96×1 one, with a helper on a second goroutine and
// without (the Split's owner then claims every upper half itself).
func BenchmarkStepSplit(b *testing.B) {
	for _, sh := range []struct{ in, hidden, layers int }{{5, 256, 4}, {5, 96, 1}} {
		im := NewLSTM(sh.in, sh.hidden, sh.layers, 81)
		x := randSeq(82, 1, sh.in)[0]
		for _, helper := range []bool{true, false} {
			b.Run(fmt.Sprintf("%dx%d/helper=%v", sh.hidden, sh.layers, helper), func(b *testing.B) {
				st := im.NewState()
				sp := NewSplit(nil)
				defer sp.Release()
				if helper {
					sp.Recruit(goTry)
				}
				for i := 0; i < b.N; i++ {
					sp.StepInto(im, st, x)
				}
				b.ReportMetric(float64(sp.Helped)/float64(max(sp.Halves, 1)), "helped/half")
			})
		}
	}
}
