package session

import (
	"context"
	"io"
	"sync"
)

// ring is the session's bounded replay buffer of published events. The
// run goroutine publishes records; any number of subscribers read by
// cursor, and reading is what encodes. Event sequence numbers are
// contiguous from 1, so the ring addresses its contents by arithmetic on
// last rather than storing or searching them. A subscriber that falls
// more than the ring's capacity behind loses the overwritten prefix and
// is told about the gap (SSE clients see it as a jump in event ids and
// can re-request state).
type ring struct {
	mu     sync.Mutex
	buf    []record // grows on demand to max, then wraps
	max    int
	start  int           // index of the oldest record
	n      int           // records held
	last   int64         // seq of the newest record ever published
	notify chan struct{} // made by a reader that found nothing new; closed by the next publish
	closed bool
}

// ringInitial is the capacity a ring starts with; most sessions are
// created long before anyone looks at their events.
const ringInitial = 64

// bytesPerEvent sizes a read's output buffer: packet events, the bulk of
// any stream, encode to about 150 bytes.
const bytesPerEvent = 160

func newRing(capacity int) *ring {
	return &ring{max: capacity}
}

// publish appends the records of recs that JSON can carry as the next
// events, wakes waiting readers and reports how many it appended: one
// lock and at most one wake-up per batch.
func (r *ring) publish(recs []record) int {
	if len(recs) == 0 {
		return 0
	}
	r.mu.Lock()
	n := 0
	for i := range recs {
		if !recs[i].encodable() {
			continue
		}
		n++
		switch {
		case r.n < len(r.buf):
			r.buf[(r.start+r.n)%len(r.buf)] = recs[i]
			r.n++
		case len(r.buf) < r.max:
			// Full but not yet at capacity, so not yet wrapped: start is 0.
			grown := make([]record, min(max(2*len(r.buf), ringInitial), r.max))
			copy(grown, r.buf)
			r.buf = grown
			r.buf[r.n] = recs[i]
			r.n++
		default:
			r.buf[r.start] = recs[i]
			r.start = (r.start + 1) % len(r.buf)
		}
	}
	r.last += int64(n)
	if n > 0 && r.notify != nil {
		close(r.notify)
		r.notify = nil
	}
	r.mu.Unlock()
	return n
}

// closeRing marks the stream complete and wakes all waiters for good.
func (r *ring) closeRing() {
	r.mu.Lock()
	r.closed = true
	if r.notify != nil {
		close(r.notify)
		r.notify = nil
	}
	r.mu.Unlock()
}

// since encodes every buffered event with seq > after and returns them
// with the cursor to resume from, whether events were lost to overwrite
// (gap) and whether the stream is complete. When there is nothing new on
// a live stream it also returns a channel that closes on the next publish.
// Only the copy of the records happens under the lock; the publisher never
// waits for a reader's formatting.
func (r *ring) since(after int64) (batch [][]byte, next int64, gap, closed bool, wait <-chan struct{}) {
	r.mu.Lock()
	next, closed = after, r.closed
	oldest := r.last - int64(r.n) + 1
	from := after + 1
	if from < oldest {
		from, gap = oldest, r.n > 0
	}
	var recs []record
	if count := int(r.last - from + 1); count > 0 {
		recs = make([]record, count)
		first := (r.start + int(from-oldest)) % len(r.buf)
		k := copy(recs, r.buf[first:])
		copy(recs[k:], r.buf) // the part that wrapped, if any
		next = r.last
	} else if !closed {
		if r.notify == nil {
			r.notify = make(chan struct{})
		}
		wait = r.notify
	}
	r.mu.Unlock()

	if len(recs) > 0 {
		batch = make([][]byte, len(recs))
		buf := make([]byte, 0, len(recs)*bytesPerEvent)
		for i := range recs {
			at := len(buf)
			buf = appendRecord(buf, from+int64(i), &recs[i])
			// If buf was just reallocated the earlier events keep the old
			// array; each is capped so an append by the caller cannot run
			// into its neighbour.
			batch[i] = buf[at:len(buf):len(buf)]
		}
	}
	return batch, next, gap, closed, wait
}

// Subscription is one subscriber's cursor into a session's event
// stream. Close it when done so the idle-TTL reaper sees the session
// unwatched.
type Subscription struct {
	s      *Session
	cursor int64
	once   sync.Once
}

// Subscribe attaches a subscriber resuming after the given event seq
// (0 = from the oldest buffered event).
func (s *Session) Subscribe(after int64) *Subscription {
	s.subs.Add(1)
	s.touch()
	return &Subscription{s: s, cursor: after}
}

// Next blocks until events are available and returns them in order
// (JSON, one per element, encoded by this call), with gap reporting
// whether events were lost to ring overwrite since the last call. It
// returns io.EOF once the session is terminal and the stream fully
// drained, or ctx's error.
func (sub *Subscription) Next(ctx context.Context) (batch [][]byte, gap bool, err error) {
	for {
		batch, next, gap, closed, wait := sub.s.ring.since(sub.cursor)
		if len(batch) > 0 {
			sub.cursor = next
			return batch, gap, nil
		}
		if closed {
			return nil, false, io.EOF
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// Cursor returns the seq of the last event returned by Next.
func (sub *Subscription) Cursor() int64 { return sub.cursor }

// Close detaches the subscriber. Idempotent.
func (sub *Subscription) Close() {
	sub.once.Do(func() {
		sub.s.subs.Add(-1)
		sub.s.touch()
	})
}
