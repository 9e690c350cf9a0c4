// Package sim provides a deterministic discrete-event simulation kernel.
//
// It is the foundation for every simulator in this repository: the
// ground-truth network simulator (internal/netsim), the iBoxNet replay
// emulator (internal/iboxnet), and the congestion-control transport harness
// (internal/cc). The kernel is single-threaded and fully deterministic:
// events at equal timestamps fire in insertion order, and all randomness is
// drawn from explicitly seeded sources (see NewRand).
package sim

import "fmt"

// Time is a simulation timestamp in nanoseconds since the start of the run.
// Using a fixed-point integer representation (rather than float64 seconds)
// makes event ordering exact and runs bit-for-bit reproducible.
type Time int64

// Common durations, usable as both Time offsets and Duration-like constants.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis reports t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the timestamp with millisecond resolution, e.g. "12.345s".
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// event is the node behind one scheduled callback. Nodes live in the
// scheduler's node array and are recycled through its free list, so a node
// outlives the event it carried: seq names its current (or, once fired or
// cancelled, its last) occupant and doubles as the generation that
// invalidates stale EventIDs.
type event struct {
	fn   func()
	seq  uint64
	idx  int32 // position in the heap, -1 when not queued
	next int32 // free-list link: the next free slot, -1 at the end
}

// EventID identifies a scheduled event so it can be cancelled. The zero
// value identifies no event. An id goes stale when its event fires or is
// cancelled; cancelling a stale id is a no-op even after the node behind
// it has been reused for a later event.
type EventID struct {
	slot int32 // node index + 1, so the zero value names no node
	seq  uint64
}

// entry is one heap slot. The ordering key (at, seq) lives in the slot by
// value, so sifting compares without touching the nodes; seq is the
// tie-breaker that fires equal timestamps in insertion order. The node is
// named by its index, not a pointer: the heap holds no pointers, so a sift
// step is plain stores, with no write barrier while the collector marks,
// and the collector never scans the heap.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Scheduler is a discrete-event scheduler. The zero value is not usable;
// call NewScheduler.
//
// In steady state scheduling and firing allocate nothing: event nodes are
// recycled, and the scheduler stores the callback it is given as is — so
// a caller that passes a method value bound once (rather than a fresh
// closure per event) schedules for free.
type Scheduler struct {
	now   Time
	heap  []entry // binary min-heap over (at, seq)
	seq   uint64
	nodes []event // indexed by entry.slot; grows, never shrinks
	free  int32   // first free node, -1 when none
}

// NewScheduler returns a scheduler with the clock at zero and no events.
func NewScheduler() *Scheduler {
	return &Scheduler{free: -1}
}

// Now returns the current simulation time.
func (s *Scheduler) Now() Time { return s.now }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a simulator bug rather than a recoverable condition.
func (s *Scheduler) At(t Time, fn func()) EventID {
	seq := s.seq
	s.seq++
	return s.schedule(t, seq, fn)
}

// After schedules fn to run d nanoseconds from now.
func (s *Scheduler) After(d Time, fn func()) EventID {
	return s.At(s.now+d, fn)
}

// ReserveSeq sets aside n consecutive tie-break sequence numbers and
// returns the first. Together with AtSeq it lets a source that knows its
// whole schedule up front (netsim.Replay) keep only its next event
// queued, yet fire in exactly the order it would have had it scheduled
// all n events at the moment of the reservation.
func (s *Scheduler) ReserveSeq(n int) uint64 {
	first := s.seq
	s.seq += uint64(n)
	return first
}

// AtSeq is At with an explicit tie-break sequence number, which must come
// from a ReserveSeq block and be used at most once.
func (s *Scheduler) AtSeq(t Time, seq uint64, fn func()) EventID {
	return s.schedule(t, seq, fn)
}

func (s *Scheduler) schedule(t Time, seq uint64, fn func()) EventID {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if s.free < 0 {
		s.grow()
	}
	slot := s.free
	ev := &s.nodes[slot]
	s.free = ev.next
	ev.fn, ev.seq, ev.next = fn, seq, -1
	s.heap = append(s.heap, entry{at: t, seq: seq, slot: slot})
	s.up(len(s.heap) - 1)
	return EventID{slot + 1, seq}
}

// grow adds free nodes: doubling from eight, so a scheduler that only
// ever holds a handful of events stays small.
func (s *Scheduler) grow() {
	n := len(s.nodes)
	s.nodes = append(s.nodes, make([]event, max(n, 8))...)
	for i := n; i < len(s.nodes); i++ {
		s.nodes[i].idx, s.nodes[i].next = -1, int32(i+1)
	}
	s.nodes[len(s.nodes)-1].next = s.free
	s.free = int32(n)
}

// release returns a fired or cancelled node to the free list. Its seq is
// left in place: until the node is reused, a stale id still matches it and
// is told apart by idx == -1.
func (s *Scheduler) release(slot int32) {
	ev := &s.nodes[slot]
	ev.fn = nil
	ev.idx = -1
	ev.next = s.free
	s.free = slot
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (s *Scheduler) Cancel(id EventID) {
	slot := id.slot - 1
	if slot < 0 {
		return
	}
	ev := &s.nodes[slot]
	if ev.seq != id.seq || ev.idx < 0 {
		return
	}
	s.remove(int(ev.idx))
	s.release(slot)
}

// Pending reports the number of live scheduled events.
func (s *Scheduler) Pending() int { return len(s.heap) }

// Step runs the earliest pending event, advancing the clock to its
// timestamp. It reports false when no events remain.
func (s *Scheduler) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	s.now = s.heap[0].at
	slot := s.heap[0].slot
	s.remove(0)
	// Recycle before running: the callback's own scheduling then reuses
	// the node while it is still in cache.
	fn := s.nodes[slot].fn
	s.release(slot)
	fn()
	return true
}

// RunUntil executes events in timestamp order until the queue is empty or
// the next event would fire after the deadline. The clock is left at the
// deadline if it was reached, so successive RunUntil calls see monotonic
// time.
func (s *Scheduler) RunUntil(deadline Time) {
	for len(s.heap) > 0 && s.heap[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Run executes events until none remain.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// remove deletes heap slot i, restoring the heap order.
func (s *Scheduler) remove(i int) {
	n := len(s.heap) - 1
	if i != n {
		s.heap[i] = s.heap[n]
		s.nodes[s.heap[i].slot].idx = int32(i)
	}
	s.heap = s.heap[:n] // same array: a length store, no write barrier
	if i != n && !s.down(i) {
		s.up(i)
	}
}

// up sifts slot i towards the root.
func (s *Scheduler) up(i int) {
	h, nodes := s.heap, s.nodes
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		nodes[h[i].slot].idx = int32(i)
		i = parent
	}
	h[i] = e
	nodes[e.slot].idx = int32(i)
}

// down sifts slot i towards the leaves and reports whether it moved.
func (s *Scheduler) down(i int) bool {
	h, nodes := s.heap, s.nodes
	n := len(h)
	e := h[i]
	start := i
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&e) {
			break
		}
		h[i] = h[child]
		nodes[h[i].slot].idx = int32(i)
		i = child
	}
	h[i] = e
	nodes[e.slot].idx = int32(i)
	return i != start
}
