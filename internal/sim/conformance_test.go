package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// oracle is the reference scheduler the real one is checked against: the
// textbook container/heap over pointer events with a cancelled flag, which
// is what Scheduler was before it grew a typed heap and a node free list.
// A cancel on the oracle's side mirrors a Timer.Stop or Timer.Reset.
// It lives here so the package itself no longer imports container/heap.
type oracle struct {
	now   Time
	queue oracleQueue
	seq   uint64
}

type oracleEvent struct {
	at   Time
	seq  uint64
	fn   func()
	dead bool
	idx  int
}

type oracleQueue []*oracleEvent

func (q oracleQueue) Len() int { return len(q) }
func (q oracleQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q oracleQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx, q[j].idx = i, j
}
func (q *oracleQueue) Push(x any) {
	ev := x.(*oracleEvent)
	ev.idx = len(*q)
	*q = append(*q, ev)
}
func (q *oracleQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	ev.idx = -1
	*q = old[:len(old)-1]
	return ev
}

func (o *oracle) at(t Time, fn func()) *oracleEvent {
	ev := &oracleEvent{at: t, seq: o.seq, fn: fn}
	o.seq++
	heap.Push(&o.queue, ev)
	return ev
}

func (o *oracle) cancel(ev *oracleEvent) {
	if ev.dead {
		return
	}
	ev.dead = true
	if ev.idx >= 0 {
		heap.Remove(&o.queue, ev.idx)
	}
}

func (o *oracle) step() bool {
	if len(o.queue) == 0 {
		return false
	}
	ev := heap.Pop(&o.queue).(*oracleEvent)
	ev.dead = true // fired: a later cancel is a no-op
	o.now = ev.at
	ev.fn()
	return true
}

func (o *oracle) runUntil(deadline Time) {
	for len(o.queue) > 0 && o.queue[0].at <= deadline {
		o.step()
	}
	if o.now < deadline {
		o.now = deadline
	}
}

// TestSchedulerMatchesHeapOracle drives the scheduler and the oracle with
// the same random interleaving of At / After / RunUntil, of Line.At on a
// few delay lines and of Timer.Reset / Stop — with events that themselves
// schedule and re-arm or stop timers — and requires the same firing
// order, clock and Pending() throughout. Times fall on a coarse grid, so
// many events tie. On the oracle's side a line event is a plain event and
// a timer Reset is cancel plus At. The timers outnumber the lines, and
// their deadlines spread over the grid, so Stop and an earlier Reset take
// nodes out of (or re-key them at) every depth of the heap, not just the
// root.
func TestSchedulerMatchesHeapOracle(t *testing.T) {
	const nLines, nTimers = 3, 6
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, o := NewScheduler(), &oracle{}
		var gotLog, wantLog []string
		next := 0

		var lines [nLines]*Line
		var oracleLast [nLines]Time
		for i := range lines {
			lines[i] = s.NewLine()
		}
		// lineAt is a time no earlier than now or the line's last event,
		// often equal to one of them.
		lineAt := func(j int) Time {
			return max(s.Now(), lines[j].last) + 10*Time(rng.Intn(4))
		}

		// The timers re-arm themselves on every other firing, so a timer
		// callback also exercises Reset from inside Step.
		var timers [nTimers]*Timer
		var timerRefs [nTimers]*oracleEvent
		var gotFires, wantFires [nTimers]int
		var oracleFire func(k int) func()
		oracleFire = func(k int) func() {
			return func() {
				wantLog = append(wantLog, fmt.Sprintf("timer %d@%d", k, o.now))
				if wantFires[k]++; wantFires[k]%2 == 1 {
					timerRefs[k] = o.at(o.now+30, oracleFire(k))
				}
			}
		}
		for k := range timers {
			timers[k] = s.NewTimer(func() {
				gotLog = append(gotLog, fmt.Sprintf("timer %d@%d", k, s.Now()))
				if gotFires[k]++; gotFires[k]%2 == 1 {
					timers[k].Reset(s.Now() + 30)
				}
			})
		}
		reset := func(k int, at Time) {
			timers[k].Reset(at)
			if timerRefs[k] != nil {
				o.cancel(timerRefs[k])
			}
			timerRefs[k] = o.at(at, oracleFire(k))
		}
		stop := func(k int) {
			timers[k].Stop()
			if timerRefs[k] != nil {
				o.cancel(timerRefs[k])
			}
		}

		// schedule adds the same event to both sides: with At when line is
		// negative, else on that line. When it fires it logs itself and,
		// as decided here, schedules a plain child, queues a child on a
		// line, and re-arms or stops a timer.
		schedule := func(at Time, line int) {
			id := next
			next++
			childDelay, childLine := Time(-1), -1
			var childLineDelay Time
			timer, timerDelay := -1, Time(-1)
			if rng.Intn(3) == 0 {
				childDelay = 10 * Time(rng.Intn(5))
			}
			if rng.Intn(3) == 0 {
				childLine = rng.Intn(nLines)
				childLineDelay = 10 * Time(rng.Intn(4))
			}
			if rng.Intn(3) == 0 {
				timer = rng.Intn(nTimers)
				if rng.Intn(4) > 0 {
					timerDelay = 10 * Time(rng.Intn(20))
				}
			}
			got := func() {
				gotLog = append(gotLog, fmt.Sprintf("%d@%d", id, s.Now()))
				if childDelay >= 0 {
					s.After(childDelay, func() {
						gotLog = append(gotLog, fmt.Sprintf("child of %d@%d", id, s.Now()))
					})
				}
				if childLine >= 0 {
					l := lines[childLine]
					l.At(max(s.Now(), l.last)+childLineDelay, func() {
						gotLog = append(gotLog, fmt.Sprintf("line child of %d@%d", id, s.Now()))
					})
				}
				if timer >= 0 {
					if timerDelay >= 0 {
						timers[timer].Reset(s.Now() + timerDelay)
					} else {
						timers[timer].Stop()
					}
				}
			}
			// The oracle has no line, so it mirrors each line's last time
			// for the children it queues.
			want := func() {
				wantLog = append(wantLog, fmt.Sprintf("%d@%d", id, o.now))
				if childDelay >= 0 {
					o.at(o.now+childDelay, func() {
						wantLog = append(wantLog, fmt.Sprintf("child of %d@%d", id, o.now))
					})
				}
				if childLine >= 0 {
					at := max(o.now, oracleLast[childLine]) + childLineDelay
					oracleLast[childLine] = at
					o.at(at, func() {
						wantLog = append(wantLog, fmt.Sprintf("line child of %d@%d", id, o.now))
					})
				}
				if timer >= 0 {
					if timerRefs[timer] != nil {
						o.cancel(timerRefs[timer])
					}
					if timerDelay >= 0 {
						timerRefs[timer] = o.at(o.now+timerDelay, oracleFire(timer))
					}
				}
			}
			if line < 0 {
				s.At(at, got)
				o.at(at, want)
				return
			}
			lines[line].At(at, got)
			oracleLast[line] = at
			o.at(at, want)
		}

		checked := 0
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(14); {
			case op < 4:
				schedule(s.Now()+10*Time(rng.Intn(20)), -1)
			case op < 7:
				j := rng.Intn(nLines)
				schedule(lineAt(j), j)
			case op < 10:
				k := rng.Intn(nTimers)
				if rng.Intn(3) > 0 {
					reset(k, s.Now()+10*Time(rng.Intn(20)))
				} else {
					stop(k)
				}
			case op < 12:
				d := s.Now() + 10*Time(rng.Intn(12))
				s.RunUntil(d)
				o.runUntil(d)
			default:
				if s.Step() != o.step() {
					t.Fatalf("seed %d step %d: Step disagrees on whether an event remained", seed, step)
				}
			}
			if s.Pending() != len(o.queue) || s.Now() != o.now {
				t.Fatalf("seed %d step %d: pending %d/%d, now %v/%v",
					seed, step, s.Pending(), len(o.queue), s.Now(), o.now)
			}
			if len(gotLog) != len(wantLog) {
				t.Fatalf("seed %d step %d: %d events fired, oracle fired %d", seed, step, len(gotLog), len(wantLog))
			}
			for ; checked < len(gotLog); checked++ {
				if gotLog[checked] != wantLog[checked] {
					t.Fatalf("seed %d step %d: event %d fired as %s, oracle fired %s",
						seed, step, checked, gotLog[checked], wantLog[checked])
				}
			}
		}
		s.Run()
		for o.step() {
		}
		if len(gotLog) == 0 || fmt.Sprint(gotLog) != fmt.Sprint(wantLog) {
			t.Fatalf("seed %d: firing order differs from the oracle\n got %v\nwant %v", seed, gotLog, wantLog)
		}
		if s.Pending() != 0 {
			t.Fatalf("seed %d: %d events pending after Run", seed, s.Pending())
		}
	}
}

// TestSchedulerStaleHandle: a timer that fired no longer names the node
// it was queued on, so stopping it must not remove the event that node
// now carries; neither must stopping a timer twice.
func TestSchedulerStaleHandle(t *testing.T) {
	s := NewScheduler()
	fired := 0
	tm := s.NewTimer(func() {})
	tm.Reset(1)
	s.Run()
	// The free list is LIFO, so this event takes over the timer's node.
	s.At(2, func() { fired++ })
	tm.Stop()
	if s.Pending() != 1 {
		t.Fatalf("Stop of a fired timer removed its node's new occupant")
	}
	s.Run()
	// Same for a stopped (rather than fired) timer, stopped again.
	tm.Reset(5)
	tm.Stop()
	s.At(6, func() { fired++ })
	tm.Stop()
	s.Run()
	if fired != 2 {
		t.Fatalf("events after a fired and a stopped timer fired %d times, want 2", fired)
	}
}

// TestSchedulerReservedSeq: events scheduled one at a time from a reserved
// sequence block fire where they would have had they all been scheduled at
// the moment of the reservation.
func TestSchedulerReservedSeq(t *testing.T) {
	var eager, lazy []string
	{
		s := NewScheduler()
		s.At(10, func() { eager = append(eager, "a") })
		for i := 0; i < 3; i++ {
			s.At(10, func() { eager = append(eager, fmt.Sprint("r", i)) })
		}
		s.At(10, func() { eager = append(eager, "b") })
		s.Run()
	}
	{
		s := NewScheduler()
		s.At(10, func() { lazy = append(lazy, "a") })
		first := s.ReserveSeq(3)
		var next func(i int) func()
		next = func(i int) func() {
			return func() {
				lazy = append(lazy, fmt.Sprint("r", i))
				if i+1 < 3 {
					s.AtSeq(10, first+uint64(i+1), next(i+1))
				}
			}
		}
		s.AtSeq(10, first, next(0))
		s.At(10, func() { lazy = append(lazy, "b") })
		s.Run()
	}
	if fmt.Sprint(eager) != fmt.Sprint(lazy) || len(lazy) != 5 {
		t.Fatalf("reserved-sequence order %v, eager order %v", lazy, eager)
	}
}

// TestSchedulerSteadyStateAllocs: once the node pool, the heap and the
// line's ring have grown, scheduling, queueing on a line, arming,
// stopping and re-arming a timer and firing allocate nothing.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	line, timer, stopped := s.NewLine(), s.NewTimer(fn), s.NewTimer(fn)
	for i := 0; i < 64; i++ { // a standing population, as in a simulation
		s.After(1<<40+Time(i), fn)
	}
	churn := func() {
		stopped.Reset(s.Now() + 5)
		s.After(3, fn)
		stopped.Stop()
		s.After(7, fn)
		line.After(4, fn)
		line.After(6, fn)
		timer.Reset(s.Now() + 500)
		s.RunUntil(s.Now() + 8)
	}
	churn()
	if allocs := testing.AllocsPerRun(1000, churn); allocs != 0 || s.Pending() != 64+1 {
		t.Fatalf("%d pending; After+Line+Timer+Stop+Step allocates %.1f objects per round in steady state, want 0", s.Pending(), allocs)
	}
}

// BenchmarkSchedulerChurn is the scheduler's steady state in a packet
// simulation: a standing population of a few hundred events, each firing
// event scheduling its successor, and a timer that is stopped and
// re-armed on every round (the transport's RTO).
func BenchmarkSchedulerChurn(b *testing.B) { schedulerChurn(b) }

// BenchmarkSchedulerChurnUnderGC is the same churn while another goroutine
// allocates pointer-rich garbage over a standing live set, so the
// collector is marking for much of the run — as it is while iBoxML trains
// beside a simulation. Pointer stores the scheduler makes then pay a write
// barrier; BenchmarkSchedulerChurn, which allocates nothing, never shows
// that cost. Its B/op counts the allocating goroutine's garbage.
func BenchmarkSchedulerChurnUnderGC(b *testing.B) {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		live := make([][]*int, 4096)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			live[i%len(live)] = make([]*int, 512)
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	schedulerChurn(b)
}

func schedulerChurn(b *testing.B) {
	s := NewScheduler()
	rng := NewRand(1, 1)
	var fn func()
	fn = func() { s.After(Time(1+rng.Intn(1000)), fn) }
	for i := 0; i < 256; i++ {
		s.After(Time(1+rng.Intn(1000)), fn)
	}
	rto := s.NewTimer(func() {})
	rto.Reset(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
		rto.Stop()
		rto.Reset(s.Now() + 5000)
	}
}
