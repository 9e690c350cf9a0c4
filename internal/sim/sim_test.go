package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %d, want %d", got, 1500*Millisecond)
	}
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Errorf("Seconds() = %v, want 0.25", got)
	}
	if got := (2 * Millisecond).Millis(); got != 2.0 {
		t.Errorf("Millis() = %v, want 2", got)
	}
	if got := (1500 * Millisecond).String(); got != "1.500s" {
		t.Errorf("String() = %q, want 1.500s", got)
	}
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(30*Millisecond, func() { order = append(order, 3) })
	s.At(10*Millisecond, func() { order = append(order, 1) })
	s.At(20*Millisecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if s.Now() != 30*Millisecond {
		t.Errorf("final clock = %v, want 30ms", s.Now())
	}
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-timestamp events not FIFO: %v", order)
		}
	}
}

func TestSchedulerAfter(t *testing.T) {
	s := NewScheduler()
	var fired Time = -1
	s.At(Second, func() {
		s.After(500*Millisecond, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 1500*Millisecond {
		t.Errorf("After fired at %v, want 1.5s", fired)
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	id := s.At(Second, func() { fired = true })
	s.Cancel(id)
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	// Double-cancel and cancel-after-run are no-ops.
	s.Cancel(id)
	s.Cancel(EventID{})
}

func TestSchedulerCancelOneOfMany(t *testing.T) {
	s := NewScheduler()
	var order []int
	var ids []EventID
	for i := 0; i < 5; i++ {
		i := i
		ids = append(ids, s.At(Time(i+1)*Millisecond, func() { order = append(order, i) }))
	}
	s.Cancel(ids[2])
	s.Run()
	want := []int{0, 1, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("got %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got %v, want %v", order, want)
		}
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var count int
	for i := 1; i <= 10; i++ {
		s.At(Time(i)*Second, func() { count++ })
	}
	s.RunUntil(5 * Second)
	if count != 5 {
		t.Errorf("RunUntil(5s) ran %d events, want 5", count)
	}
	if s.Now() != 5*Second {
		t.Errorf("clock = %v, want 5s", s.Now())
	}
	s.RunUntil(20 * Second)
	if count != 10 {
		t.Errorf("RunUntil(20s) ran %d events total, want 10", count)
	}
	if s.Now() != 20*Second {
		t.Errorf("clock left at %v, want deadline 20s", s.Now())
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.At(500*Millisecond, func() {})
}

func TestSchedulerEventsScheduledDuringRun(t *testing.T) {
	s := NewScheduler()
	depth := 0
	var schedule func()
	schedule = func() {
		depth++
		if depth < 100 {
			s.After(Millisecond, schedule)
		}
	}
	s.At(0, schedule)
	s.Run()
	if depth != 100 {
		t.Errorf("chained scheduling depth = %d, want 100", depth)
	}
	if s.Now() != 99*Millisecond {
		t.Errorf("clock = %v, want 99ms", s.Now())
	}
}

// TestSchedulerOrderProperty: for any set of event times, firing order is
// sorted by time, and the clock is monotonically non-decreasing.
func TestSchedulerOrderProperty(t *testing.T) {
	prop := func(offsets []uint16) bool {
		s := NewScheduler()
		var fired []Time
		for _, off := range offsets {
			at := Time(off) * Microsecond
			s.At(at, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLineRejectsOutOfOrder: a line's times may tie but never decrease,
// and its events, like any, cannot be scheduled in the past.
func TestLineRejectsOutOfOrder(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	s := NewScheduler()
	l := s.NewLine()
	l.At(10, func() {})
	l.At(10, func() {}) // a tie is in order
	mustPanic("an earlier time on a non-empty line", func() { l.At(9, func() {}) })
	s.Run()
	mustPanic("a time before now on an empty line", func() { l.At(5, func() {}) })
	l.At(10, func() {}) // the empty line accepts any time from now on
	if s.Pending() != 1 {
		t.Fatalf("pending %d, want 1", s.Pending())
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a := NewRand(42, 1)
	b := NewRand(42, 1)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("identical (seed, stream) produced different sequences")
		}
	}
}

func TestNewRandStreamsDiffer(t *testing.T) {
	seen := map[int64]bool{}
	for stream := int64(0); stream < 50; stream++ {
		v := NewRand(7, stream).Int63()
		if seen[v] {
			t.Fatalf("stream %d collided with an earlier stream", stream)
		}
		seen[v] = true
	}
}

func TestNewRandZeroSeedUsable(t *testing.T) {
	// The mix of (0,0) must not yield the degenerate all-zero source state.
	r := NewRand(0, 0)
	var _ *rand.Rand = r
	allSame := true
	first := r.Int63()
	for i := 0; i < 10; i++ {
		if r.Int63() != first {
			allSame = false
		}
	}
	if allSame {
		t.Error("NewRand(0,0) produced a constant stream")
	}
}
