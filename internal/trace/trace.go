// Package trace defines the input–output packet trace representation that
// iBox learns from, together with the derived time series and summary
// metrics used throughout the paper's evaluation.
//
// A Trace records, for every packet a sender injected into a network path,
// when it was sent, whether it was delivered, and when it arrived at the
// receiver. As §2 of the paper observes, this single formulation captures
// queue buildup (increasing delay), packet loss (infinite delay), and
// reordering (a drop in delay between successive packets).
package trace

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"

	"ibox/internal/sim"
)

// Packet is one sender-to-receiver packet record.
type Packet struct {
	Seq      int64    `json:"seq"`
	Size     int      `json:"size"` // bytes, including headers
	SendTime sim.Time `json:"send"` // sender timestamp
	RecvTime sim.Time `json:"recv"` // receiver timestamp; meaningless if Lost
	Lost     bool     `json:"lost,omitempty"`
}

// Delay returns the one-way delay experienced by a delivered packet.
func (p Packet) Delay() sim.Time { return p.RecvTime - p.SendTime }

// Trace is the input–output record of one flow over one network path.
// Packets are ordered by send time (and therefore by Seq).
type Trace struct {
	Protocol string   `json:"protocol"` // e.g. "cubic", "vegas"
	PathID   string   `json:"path_id"`  // e.g. "india-cellular-3"
	Packets  []Packet `json:"packets"`
}

// Validate checks the structural invariants of a trace: sequence numbers
// strictly increasing, send times non-decreasing, and every delivered
// packet's receive time at or after its send time.
func (t *Trace) Validate() error {
	for i, p := range t.Packets {
		if p.Size <= 0 {
			return fmt.Errorf("trace: packet %d has non-positive size %d", i, p.Size)
		}
		if p.SendTime < 0 {
			return fmt.Errorf("trace: packet %d has negative send time", i)
		}
		if !p.Lost && p.RecvTime < p.SendTime {
			return fmt.Errorf("trace: packet %d received before sent", i)
		}
		if i > 0 {
			if p.Seq <= t.Packets[i-1].Seq {
				return fmt.Errorf("trace: packet %d seq %d not increasing", i, p.Seq)
			}
			if p.SendTime < t.Packets[i-1].SendTime {
				return fmt.Errorf("trace: packet %d sent before predecessor", i)
			}
		}
	}
	return nil
}

// Duration is the span from the first send to the latest of the last send
// or last delivery. An empty trace has zero duration.
func (t *Trace) Duration() sim.Time {
	if len(t.Packets) == 0 {
		return 0
	}
	start := t.Packets[0].SendTime
	end := t.Packets[len(t.Packets)-1].SendTime
	for _, p := range t.Packets {
		if !p.Lost && p.RecvTime > end {
			end = p.RecvTime
		}
	}
	return end - start
}

// numDelivered counts the packets that were delivered.
func (t *Trace) numDelivered() int {
	n := 0
	for _, p := range t.Packets {
		if !p.Lost {
			n++
		}
	}
	return n
}

// LossRate is the fraction of sent packets that were lost, in [0, 1].
func (t *Trace) LossRate() float64 {
	if len(t.Packets) == 0 {
		return 0
	}
	lost := 0
	for _, p := range t.Packets {
		if p.Lost {
			lost++
		}
	}
	return float64(lost) / float64(len(t.Packets))
}

// Throughput is the delivered goodput in bits per second over the trace
// duration.
func (t *Trace) Throughput() float64 {
	if len(t.Packets) == 0 {
		return 0
	}
	// Duration and the delivered bytes in one pass.
	end := t.Packets[len(t.Packets)-1].SendTime
	bytes := 0
	for _, p := range t.Packets {
		if !p.Lost {
			bytes += p.Size
			end = max(end, p.RecvTime)
		}
	}
	d := end - t.Packets[0].SendTime
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / d.Seconds()
}

// Delays returns the one-way delays of delivered packets, in milliseconds,
// in send order.
func (t *Trace) Delays() []float64 {
	return t.appendDelays(make([]float64, 0, len(t.Packets)))
}

// appendDelays appends the delays Delays returns to out.
func (t *Trace) appendDelays(out []float64) []float64 {
	for _, p := range t.Packets {
		if !p.Lost {
			out = append(out, p.Delay().Millis())
		}
	}
	return out
}

// scratch recycles working slices that a call is done with when it
// returns, across calls and goroutines. Unlike a sync.Pool it keeps them
// through garbage collections, so a worker that analyses one trace after
// another reuses one slice for all of them instead of allocating afresh
// after each collection. It keeps at most max(GOMAXPROCS, 4) slices (a
// worker pool may run more goroutines than there are Ps: a two-worker
// pool on one P borrows two at once), each of at most max elements: a
// process that analyses the odd large trace, such as the daemon
// summarising a long replay, would otherwise hold such slices for good.
type scratch[T any] struct {
	max  int
	mu   sync.Mutex
	free [][]T
}

// scratchMax is the element cap of the analyses' working slices, room
// for most 10-s simulated cellular flows.
const scratchMax = 1 << 14

// get returns an empty slice with room for n elements.
func (s *scratch[T]) get(n int) []T {
	var b []T
	s.mu.Lock()
	if k := len(s.free); k > 0 {
		b = s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
	}
	s.mu.Unlock()
	return slices.Grow(b[:0], n)
}

// put gives b back for a later get; the caller must not use it again.
func (s *scratch[T]) put(b []T) {
	if cap(b) == 0 || cap(b) > s.max {
		return
	}
	s.mu.Lock()
	if len(s.free) < max(runtime.GOMAXPROCS(0), 4) {
		s.free = append(s.free, b)
	}
	s.mu.Unlock()
}

// delayScratch holds DelayPercentile's working copy of the delays.
var delayScratch = scratch[float64]{max: scratchMax}

// packetScratch holds the packet arrays of lent traces (Borrow). Its cap
// keeps the array of a 10-s flow on a 100 Mbps path or a 30-s cellular
// one; only processes that measure runs borrow packet arrays, so the
// daemon holds none.
var packetScratch = scratch[Packet]{max: 1 << 16}

// Borrow returns an empty packet slice with room for n packets, from the
// arrays earlier borrowers gave back; Borrow(0) returns whichever array
// is free, for a caller that grows it by append. A run whose trace is
// only reduced to numbers builds the trace over it and gives it back with
// Return once the numbers are read, so the run allocates no trace of its
// own.
func Borrow(n int) []Packet { return packetScratch.get(n) }

// Return gives back a slice from Borrow. Neither it nor any trace or
// slice over its array may be used afterwards.
func Return(pkts []Packet) { packetScratch.put(pkts) }

// DelayPercentile returns the p-th percentile (p in [0,100]) of delivered
// one-way delay in milliseconds, or NaN if nothing was delivered.
func (t *Trace) DelayPercentile(p float64) float64 {
	d := t.appendDelays(delayScratch.get(len(t.Packets)))
	defer delayScratch.put(d)
	if len(d) == 0 {
		return math.NaN()
	}
	// percentileSorted reads only the ranks around p, so put those two
	// order statistics in place instead of sorting everything.
	lo := len(d) - 1
	if p < 100 {
		lo = int(math.Floor(max(p, 0) / 100 * float64(len(d)-1)))
	}
	selectNth(d, lo)
	if lo+1 < len(d) {
		selectNth(d[lo+1:], 0)
	}
	return percentileSorted(d, p)
}

// selectNth reorders a so that a[k] holds what sort.Float64s would put
// there, with nothing greater before it and nothing smaller after it
// (Hoare's selection; a holds no NaN). A run of bad pivots falls back to
// sorting what is left, bounding the work at O(n log n).
func selectNth(a []float64, k int) {
	lo, hi := 0, len(a)-1
	for budget := 3 * bits.Len(uint(len(a))); lo < hi; budget-- {
		if budget == 0 {
			sort.Float64s(a[lo : hi+1])
			return
		}
		// The median of three is a value in the range, so both scans
		// stop inside it.
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi]
		pivot := max(min(x, y), min(max(x, y), z))
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for pivot < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Now a[lo..j] ≤ pivot ≤ a[i..hi], and anything between equals it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// percentileSorted computes the p-th percentile of a sorted slice using
// linear interpolation between closest ranks.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// InterArrivalsBySeq returns, for consecutive delivered packets in sequence
// order, the receiver inter-arrival times in milliseconds. Negative values
// indicate reordering: a later-sequenced packet arrived earlier (§5.1's
// SAX symbol 'a').
func (t *Trace) InterArrivalsBySeq() []float64 {
	n := t.numDelivered()
	if n < 2 {
		return nil
	}
	out := make([]float64, 0, n-1)
	var prev sim.Time
	first := true
	for _, p := range t.Packets {
		if p.Lost {
			continue
		}
		if !first {
			out = append(out, (p.RecvTime - prev).Millis())
		}
		prev, first = p.RecvTime, false
	}
	return out
}

// ReorderedFlags reports, for each delivered packet in sequence order,
// whether it arrived before some earlier-sequenced delivered packet
// (i.e. its receive time is below the running maximum).
func (t *Trace) ReorderedFlags() []bool {
	flags := make([]bool, 0, t.numDelivered())
	var maxRecv sim.Time = -1
	for _, p := range t.Packets {
		if p.Lost {
			continue
		}
		flags = append(flags, len(flags) > 0 && p.RecvTime < maxRecv)
		if p.RecvTime > maxRecv {
			maxRecv = p.RecvTime
		}
	}
	return flags
}

// Reordered counts the delivered packets and those of them ReorderedFlags
// marks, without building the flags.
func (t *Trace) Reordered() (reordered, delivered int) {
	var maxRecv sim.Time = -1
	for _, p := range t.Packets {
		if p.Lost {
			continue
		}
		if delivered > 0 && p.RecvTime < maxRecv {
			reordered++
		}
		delivered++
		if p.RecvTime > maxRecv {
			maxRecv = p.RecvTime
		}
	}
	return reordered, delivered
}

// ReorderingRate is the overall fraction of delivered packets that arrived
// out of order.
func (t *Trace) ReorderingRate() float64 {
	n, delivered := t.Reordered()
	if delivered == 0 {
		return 0
	}
	return float64(n) / float64(delivered)
}

// ReorderingRateWindows computes the per-window reordering rate (reordered
// delivered packets ÷ delivered packets) over fixed windows of the given
// width, as in Fig 5's "reordering rate over 1-sec windows". Windows with
// no delivered packets are skipped.
func (t *Trace) ReorderingRateWindows(window sim.Time) []float64 {
	flags := t.ReorderedFlags()
	if len(flags) == 0 || window <= 0 {
		return nil
	}
	start := t.Packets[0].SendTime
	counts := map[int]int{}
	reord := map[int]int{}
	maxIdx := 0
	i := 0 // index of p among the delivered packets
	for _, p := range t.Packets {
		if p.Lost {
			continue
		}
		w := int((p.RecvTime - start) / window)
		if w < 0 {
			w = 0
		}
		counts[w]++
		if flags[i] {
			reord[w]++
		}
		i++
		if w > maxIdx {
			maxIdx = w
		}
	}
	var rates []float64
	for w := 0; w <= maxIdx; w++ {
		if counts[w] > 0 {
			rates = append(rates, float64(reord[w])/float64(counts[w]))
		}
	}
	return rates
}

var errEmptyTrace = errors.New("trace: empty trace")

// Start returns the first send time, or an error for an empty trace.
func (t *Trace) Start() (sim.Time, error) {
	if len(t.Packets) == 0 {
		return 0, errEmptyTrace
	}
	return t.Packets[0].SendTime, nil
}
