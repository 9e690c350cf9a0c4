// Package sim provides a deterministic discrete-event simulation kernel.
//
// It is the foundation for every simulator in this repository: the
// ground-truth network simulator (internal/netsim), the iBoxNet replay
// emulator (internal/iboxnet), and the congestion-control transport harness
// (internal/cc). The kernel is single-threaded and fully deterministic:
// events at equal timestamps fire in insertion order, and all randomness is
// drawn from explicitly seeded sources (see NewRand).
package sim

import (
	"fmt"
	"sync"
)

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
// scheduler's node array and are recycled through its free list; idx lets
// Timer.Stop and Timer.Reset find a queued node's heap slot.
//
// A node may instead carry the head of a Line or a queued Timer; line or
// timer is then set, and Step consults it when the node reaches the root.
type event struct {
	fn    func()
	line  *Line
	timer *Timer
	idx   int32 // position in the heap, -1 when not queued
	next  int32 // free-list link: the next free slot, -1 at the end
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
	lined int     // events queued in lines behind their heads
}

// NewScheduler returns a scheduler with the clock at zero and no events.
func NewScheduler() *Scheduler {
	return &Scheduler{free: -1}
}

// Now returns the current simulation time.
func (s *Scheduler) Now() Time { return s.now }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a simulator bug rather than a recoverable condition.
func (s *Scheduler) At(t Time, fn func()) {
	seq := s.seq
	s.seq++
	s.push(t, seq, fn)
}

// After schedules fn to run d nanoseconds from now.
func (s *Scheduler) After(d Time, fn func()) { s.At(s.now+d, fn) }

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
func (s *Scheduler) AtSeq(t Time, seq uint64, fn func()) { s.push(t, seq, fn) }

// push queues fn at (t, seq) on a fresh node and returns the node.
func (s *Scheduler) push(t Time, seq uint64, fn func()) int32 {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if s.free < 0 {
		s.grow()
	}
	slot := s.free
	ev := &s.nodes[slot]
	s.free = ev.next
	ev.fn, ev.next = fn, -1
	s.heap = append(s.heap, entry{at: t, seq: seq, slot: slot})
	s.up(len(s.heap) - 1)
	return slot
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

// release returns a fired or stopped node to the free list.
func (s *Scheduler) release(slot int32) {
	ev := &s.nodes[slot]
	ev.fn = nil
	ev.idx = -1
	ev.next = s.free
	s.free = slot
}

// Pending reports the number of live scheduled events, those waiting in
// lines included.
func (s *Scheduler) Pending() int { return len(s.heap) + s.lined }

// Step runs the earliest pending event, advancing the clock to its
// timestamp. It reports false when no events remain.
func (s *Scheduler) Step() bool {
	ev := s.settle()
	if ev == nil {
		return false
	}
	s.fire(ev)
	return true
}

// RunUntil executes events in timestamp order until the queue is empty or
// the next event would fire after the deadline. The clock is left at the
// deadline if it was reached, so successive RunUntil calls see monotonic
// time.
func (s *Scheduler) RunUntil(deadline Time) {
	for {
		ev := s.settle()
		if ev == nil || s.heap[0].at > deadline {
			break
		}
		s.fire(ev)
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// settle returns the node at the root, or nil when no event is queued,
// first moving a timer at the root that was re-armed to a later deadline
// while queued to the key it now fires at. Afterwards the root is the
// next event to fire, and the node is handed on to fire so that each
// event reads it once.
func (s *Scheduler) settle() *event {
	for len(s.heap) > 0 {
		root := &s.heap[0]
		ev := &s.nodes[root.slot]
		t := ev.timer
		if t == nil || root.at == t.at && root.seq == t.seq {
			return ev
		}
		root.at, root.seq = t.at, t.seq
		s.down(0)
	}
	return nil
}

// fire runs the event at the root, whose node settle returned, advancing
// the clock to its timestamp.
func (s *Scheduler) fire(ev *event) {
	root := &s.heap[0]
	s.now = root.at
	slot := root.slot
	if l := ev.line; l != nil {
		fn := l.pop()
		if l.n > 0 {
			// The line's next event takes over the root: its key is no
			// smaller, so one sift down restores the heap.
			next := &l.ring[l.head]
			root.at, root.seq = next.at, next.seq
			s.lined--
			s.down(0)
		} else {
			ev.line, l.slot = nil, -1
			s.remove(0)
			s.release(slot)
		}
		fn()
		return
	}
	if t := ev.timer; t != nil {
		ev.timer, t.slot = nil, -1
	}
	s.remove(0)
	// Recycle before running: the callback's own scheduling then reuses
	// the node while it is still in cache.
	fn := ev.fn
	s.release(slot)
	fn()
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

// Line is a FIFO delay line: a queue of events whose times never
// decrease, such as packets that all wait out the same constant delay.
// Only the line's head sits in the scheduler's heap; the rest wait in a
// ring. Each event takes its tie-break sequence number when it is queued,
// exactly as At would give it, so events fire in the same order as had
// each been scheduled with At: a line only saves the heap work.
//
// A line suits a delay that is monotone by construction (now plus a
// constant, or a time clamped to follow the previous one).
type Line struct {
	s       *Scheduler
	ring    []lineEvent // power-of-two ring of n events from head
	head, n int
	last    Time  // time of the most recently queued event
	slot    int32 // node carrying the head's heap entry, -1 when empty
}

type lineEvent struct {
	at  Time
	seq uint64
	fn  func()
}

// NewLine returns an empty delay line on s.
func (s *Scheduler) NewLine() *Line { return &Line{s: s, slot: -1} }

// At queues fn to run at absolute time t. It panics if t is before now or
// before the time of the line's latest queued event.
func (l *Line) At(t Time, fn func()) {
	s := l.s
	seq := s.seq
	s.seq++
	if l.n == 0 {
		l.slot = s.push(t, seq, nil)
		s.nodes[l.slot].line = l
	} else {
		if t < l.last {
			panic(fmt.Sprintf("sim: line event at %dns before the line's last at %dns", t, l.last))
		}
		s.lined++
	}
	if l.n == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = lineEvent{at: t, seq: seq, fn: fn}
	l.n++
	l.last = t
}

// After queues fn to run d nanoseconds from now.
func (l *Line) After(d Time, fn func()) { l.At(l.s.now+d, fn) }

// pop removes the head event and returns its callback.
func (l *Line) pop() func() {
	e := &l.ring[l.head]
	fn := e.fn
	e.fn = nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return fn
}

// grow doubles the ring, from eight, unrolling it to start at index 0.
// A line without a ring first takes one a released line left (Release).
func (l *Line) grow() {
	if len(l.ring) == 0 {
		if r, _ := ringPool.Get().(*[]lineEvent); r != nil {
			l.ring, l.head = *r, 0
			return
		}
	}
	ring := make([]lineEvent, max(2*len(l.ring), 8))
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}

// ringPool holds the rings of released lines, each of a power-of-two
// length and empty: a line that a finished run made large hands its ring
// to the next run's line instead of that line growing one again.
var ringPool sync.Pool

// Release marks the end of the run the line belongs to. If nothing is
// queued on it, its ring goes to the next line that needs one; the line
// stays usable, and grows a ring again if more events are queued.
func (l *Line) Release() {
	if l.n > 0 || len(l.ring) == 0 {
		return
	}
	ring := l.ring
	l.ring, l.head = nil, 0
	ringPool.Put(&ring)
}

// Timer is a re-armable one-shot event, such as a retransmission timeout
// that every acknowledgment pushes back. Reset followed by the timer
// firing behaves exactly as removing the previous event and scheduling a
// new one with At, but a Reset to a later deadline leaves the queued heap entry where
// it is: only when that entry reaches the root is it moved to the key the
// timer now fires at. Pushing a timer back therefore costs no heap work.
type Timer struct {
	s    *Scheduler
	fn   func()
	at   Time   // deadline while armed
	seq  uint64 // tie-break sequence number of the deadline
	slot int32  // node carrying the timer's heap entry, -1 when not armed
}

// NewTimer returns a stopped timer on s that runs fn when it fires.
func (s *Scheduler) NewTimer(fn func()) *Timer { return &Timer{s: s, fn: fn, slot: -1} }

// Armed reports whether the timer will fire.
func (t *Timer) Armed() bool { return t.slot >= 0 }

// Reset arms the timer to fire at absolute time at, replacing any earlier
// deadline. It takes a sequence number as At would, so the timer fires
// where an event scheduled by At at this moment would.
func (t *Timer) Reset(at Time) {
	s := t.s
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	seq := s.seq
	s.seq++
	t.at, t.seq = at, seq
	if t.slot < 0 {
		t.slot = s.push(at, seq, t.fn)
		s.nodes[t.slot].timer = t
		return
	}
	i := int(s.nodes[t.slot].idx)
	if e := &s.heap[i]; at < e.at {
		// Moved earlier: the queued key is too late, so re-key it now.
		e.at, e.seq = at, seq
		s.up(i)
	}
}

// Stop disarms the timer. Stopping a stopped timer is a no-op.
func (t *Timer) Stop() {
	if t.slot < 0 {
		return
	}
	s := t.s
	s.nodes[t.slot].timer = nil
	s.remove(int(s.nodes[t.slot].idx))
	s.release(t.slot)
	t.slot = -1
}
