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
// the same random interleaving of At / After / Cancel / RunUntil — with
// events that themselves schedule and cancel — and requires the same
// firing order, clock and Pending() throughout. Cancels deliberately
// target fired, cancelled and recycled ids as well as live ones.
func TestSchedulerMatchesHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, o := NewScheduler(), &oracle{}
		var gotLog, wantLog []string
		var ids []EventID
		var refs []*oracleEvent
		next := 0

		// schedule adds the same event to both sides. When it fires it logs
		// itself and, as decided here, cancels some earlier handle and
		// schedules a child (a plain logging event, itself a cancel target
		// from then on). Events fire in the same order on both sides —
		// that is the property under test — so the handle lists stay
		// index-aligned.
		schedule := func(at Time) {
			id := next
			next++
			cancelTarget, childDelay := -1, Time(-1)
			if rng.Intn(4) == 0 {
				cancelTarget = rng.Intn(id + 1)
			}
			if rng.Intn(3) == 0 {
				childDelay = Time(rng.Intn(50))
			}
			ids = append(ids, s.At(at, func() {
				gotLog = append(gotLog, fmt.Sprintf("%d@%d", id, s.Now()))
				if cancelTarget >= 0 {
					s.Cancel(ids[cancelTarget])
				}
				if childDelay >= 0 {
					ids = append(ids, s.After(childDelay, func() {
						gotLog = append(gotLog, fmt.Sprintf("child of %d@%d", id, s.Now()))
					}))
				}
			}))
			refs = append(refs, o.at(at, func() {
				wantLog = append(wantLog, fmt.Sprintf("%d@%d", id, o.now))
				if cancelTarget >= 0 {
					o.cancel(refs[cancelTarget])
				}
				if childDelay >= 0 {
					refs = append(refs, o.at(o.now+childDelay, func() {
						wantLog = append(wantLog, fmt.Sprintf("child of %d@%d", id, o.now))
					}))
				}
			}))
		}

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				schedule(s.Now() + Time(rng.Intn(200)))
			case op < 7 && len(ids) > 0:
				k := rng.Intn(len(ids))
				s.Cancel(ids[k])
				o.cancel(refs[k])
			case op < 9:
				d := s.Now() + Time(rng.Intn(120))
				s.RunUntil(d)
				o.runUntil(d)
			default:
				if s.Step() != o.step() {
					t.Fatalf("seed %d step %d: Step disagrees on whether an event remained", seed, step)
				}
			}
			if s.Pending() != len(o.queue) || s.Now() != o.now || len(ids) != len(refs) {
				t.Fatalf("seed %d step %d: pending %d/%d, now %v/%v, handles %d/%d",
					seed, step, s.Pending(), len(o.queue), s.Now(), o.now, len(ids), len(refs))
			}
		}
		s.Run()
		for o.step() {
		}
		if len(gotLog) == 0 || fmt.Sprint(gotLog) != fmt.Sprint(wantLog) {
			t.Fatalf("seed %d: firing order differs from the oracle\n got %v\nwant %v", seed, gotLog, wantLog)
		}
	}
}

// TestSchedulerStaleHandle: an id whose node has fired and been reused
// must not cancel the node's new occupant.
func TestSchedulerStaleHandle(t *testing.T) {
	s := NewScheduler()
	fired := 0
	old := s.At(1, func() {})
	s.Run()
	// The free list is LIFO, so this event takes over the node old named.
	fresh := s.At(2, func() { fired++ })
	if fresh.slot != old.slot {
		t.Fatalf("test premise: the fired node was not reused")
	}
	s.Cancel(old)
	if s.Pending() != 1 {
		t.Fatalf("stale Cancel removed the node's new occupant")
	}
	s.Run()
	if fired != 1 {
		t.Fatalf("new occupant fired %d times, want 1", fired)
	}
	// Same for a cancelled (rather than fired) predecessor, and for
	// cancelling twice.
	a := s.At(5, func() { t.Error("cancelled event fired") })
	s.Cancel(a)
	b := s.At(6, func() { fired++ })
	s.Cancel(a)
	s.Cancel(a)
	s.Run()
	if fired != 2 {
		t.Fatalf("event after a cancelled predecessor fired %d times in total, want 2", fired)
	}
	s.Cancel(b)         // fired
	s.Cancel(fresh)     // fired
	s.Cancel(EventID{}) // zero value
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

// TestSchedulerSteadyStateAllocs: once the node pool and heap have grown,
// scheduling and firing allocate nothing.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 64; i++ { // a standing population, as in a simulation
		s.After(Time(1000+i), fn)
	}
	churn := func() {
		id := s.After(5, fn)
		s.After(3, fn)
		s.Cancel(id)
		s.After(7, fn)
		s.Step()
		s.Step()
	}
	churn()
	if allocs := testing.AllocsPerRun(1000, churn); allocs != 0 {
		t.Fatalf("After+Cancel+Step allocates %.1f objects per round in steady state, want 0", allocs)
	}
}

// BenchmarkSchedulerChurn is the scheduler's steady state in a packet
// simulation: a standing population of a few hundred events, each firing
// event scheduling its successor, and a timer that is cancelled and
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
	noop := func() {}
	rto := s.After(5000, noop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
		s.Cancel(rto)
		rto = s.After(5000, noop)
	}
}
