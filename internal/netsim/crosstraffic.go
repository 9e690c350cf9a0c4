package netsim

import (
	"ibox/internal/sim"
)

// CrossTraffic is an open-loop competing traffic source attached to a
// bottleneck queue (a Path's single bottleneck or one hop of a Chain).
// Closed-loop cross traffic (e.g. a competing TCP Cubic flow, as in the
// paper's instance test) is built at a higher layer by attaching a second
// cc.Flow to its own Port.
type CrossTraffic interface {
	start(inj injector)
}

// injector is where a cross-traffic source drops its bytes.
type injector struct {
	sched   *sim.Scheduler
	enqueue func(size int)
}

// ConstantBitRate emits PacketSize-byte packets at Rate bytes/sec during
// [From, To).
type ConstantBitRate struct {
	Rate       float64  // bytes per second
	PacketSize int      // bytes; 1500 if zero
	From, To   sim.Time // active interval; To=0 means forever
}

func (c ConstantBitRate) start(p injector) {
	size := c.PacketSize
	if size <= 0 {
		size = 1500
	}
	if c.Rate <= 0 {
		return
	}
	gap := sim.Time(float64(size) / c.Rate * float64(sim.Second))
	if gap < 1 {
		gap = 1
	}
	var tick func()
	tick = func() {
		now := p.sched.Now()
		if c.To > 0 && now >= c.To {
			return
		}
		if now >= c.From {
			p.enqueue(size)
		}
		p.sched.After(gap, tick)
	}
	at := c.From
	if at < p.sched.Now() {
		at = p.sched.Now()
	}
	p.sched.At(at, tick)
}

// Poisson emits PacketSize-byte packets as a Poisson process with the given
// mean rate during [From, To).
type Poisson struct {
	MeanRate   float64 // bytes per second
	PacketSize int     // bytes; 1500 if zero
	From, To   sim.Time
	Seed       int64
}

func (c Poisson) start(p injector) {
	size := c.PacketSize
	if size <= 0 {
		size = 1500
	}
	if c.MeanRate <= 0 {
		return
	}
	rng := sim.NewRand(c.Seed, 17)
	meanGap := float64(size) / c.MeanRate // seconds
	var tick func()
	tick = func() {
		now := p.sched.Now()
		if c.To > 0 && now >= c.To {
			return
		}
		if now >= c.From {
			p.enqueue(size)
		}
		gap := sim.FromSeconds(rng.ExpFloat64() * meanGap)
		if gap < 1 {
			gap = 1
		}
		p.sched.After(gap, tick)
	}
	at := c.From
	if at < p.sched.Now() {
		at = p.sched.Now()
	}
	p.sched.At(at, tick)
}

// OnOff alternates between bursting at Rate for OnDur and silence for
// OffDur, starting at From.
type OnOff struct {
	Rate       float64 // bytes per second while on
	PacketSize int
	OnDur      sim.Time
	OffDur     sim.Time
	From, To   sim.Time
}

func (c OnOff) start(p injector) {
	size := c.PacketSize
	if size <= 0 {
		size = 1500
	}
	if c.Rate <= 0 || c.OnDur <= 0 {
		return
	}
	gap := sim.Time(float64(size) / c.Rate * float64(sim.Second))
	if gap < 1 {
		gap = 1
	}
	period := c.OnDur + c.OffDur
	var tick func()
	tick = func() {
		now := p.sched.Now()
		if c.To > 0 && now >= c.To {
			return
		}
		if now >= c.From {
			phase := (now - c.From) % period
			if phase < c.OnDur {
				p.enqueue(size)
			}
		}
		p.sched.After(gap, tick)
	}
	at := c.From
	if at < p.sched.Now() {
		at = p.sched.Now()
	}
	p.sched.At(at, tick)
}

// Replay injects cross traffic following a recorded byte-count series:
// during window i of the series, Bytes[i] bytes are sent as evenly spaced
// PacketSize-byte packets. This is how the iBoxNet emulator recreates the
// estimated cross traffic (§3, Fig 1: "learns cross traffic and emulates it
// using a sender C").
type Replay struct {
	Start      sim.Time
	Step       sim.Time
	Bytes      []float64 // bytes per window
	PacketSize int
}

func (c Replay) start(p injector) {
	if c.PacketSize <= 0 {
		c.PacketSize = 1500
	}
	if c.Step <= 0 {
		return
	}
	r := &replayer{Replay: c, inj: p, floor: p.sched.Now()}
	r.fireFn = r.fire
	r.rewind()
	// Count the schedule, then rewind: the sequence block makes the lazy
	// schedule fire in the order an eager one (every packet queued here
	// and now, in schedule order) would have.
	total := 0
	for r.advance() {
		total++
	}
	r.rewind()
	r.seq = p.sched.ReserveSeq(total)
	r.scheduleNext()
}

// replayer walks a Replay's packet schedule keeping only the next packet
// on the scheduler: a long series costs one pending event, not one per
// packet.
type replayer struct {
	Replay
	inj   injector
	floor sim.Time // when the replay started; earlier send times clamp to it
	seq   uint64   // tie-break sequence number of the next packet

	// Cursor: packet j of count in window win, n of them full-sized and
	// (when count > n) a last one of rem bytes, gap apart.
	win, j, count, n, rem int
	gap                   sim.Time

	at     sim.Time // the pending packet's send time
	size   int      // and its size
	fireFn func()
}

// rewind puts the cursor before the first packet of the schedule.
func (r *replayer) rewind() { r.win, r.j, r.count = -1, 0, 0 }

// advance moves the cursor to the next packet of the schedule and loads
// its send time and size; false once the series is exhausted.
func (r *replayer) advance() bool {
	r.j++
	for r.j >= r.count {
		r.win++
		if r.win >= len(r.Bytes) {
			return false
		}
		b := r.Bytes[r.win]
		r.n = int(b / float64(r.PacketSize))
		r.rem = int(b) - r.n*r.PacketSize
		r.count = r.n
		if r.rem >= 40 { // a remainder too small to be a packet is dropped
			r.count++
		}
		r.j = 0
		if r.count > 0 {
			r.gap = r.Step / sim.Time(r.count)
		}
	}
	r.at = r.Start + sim.Time(r.win)*r.Step + sim.Time(r.j)*r.gap
	if r.at < r.floor {
		r.at = r.floor
	}
	r.size = r.PacketSize
	if r.j == r.n { // the remainder packet
		r.size = r.rem
	}
	return true
}

func (r *replayer) scheduleNext() {
	if r.advance() {
		r.inj.sched.AtSeq(r.at, r.seq, r.fireFn)
		r.seq++
	}
}

func (r *replayer) fire() {
	r.inj.enqueue(r.size)
	r.scheduleNext()
}
