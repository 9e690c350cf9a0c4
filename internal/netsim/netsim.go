// Package netsim is a from-scratch discrete-event simulator of a network
// path: access link → single bottleneck (FIFO, byte-limited, drop-tail) →
// receiver, with competing cross-traffic, optional time-varying (cellular)
// bottleneck rate, optional random loss, and optional multipath reordering.
//
// netsim plays the role of the *real network* in this reproduction: it
// generates the ground-truth input–output traces that iBoxNet (internal/
// iboxnet) and iBoxML (internal/iboxml) must learn to imitate. It is
// deliberately richer than the single-bottleneck model family iBoxNet
// assumes (variable rate, reordering), so the model-mismatch phenomena the
// paper studies in Figs 3, 5 and 8 arise naturally.
package netsim

import (
	"fmt"
	"math"
	"sync"

	"ibox/internal/sim"
)

// Config describes a network path.
type Config struct {
	// Rate is the base bottleneck service rate in bytes per second.
	Rate float64
	// BufferBytes is the bottleneck FIFO capacity in bytes (drop-tail).
	BufferBytes int
	// PropDelay is the one-way propagation delay, split evenly before and
	// after the bottleneck queue.
	PropDelay sim.Time
	// LossProb is an optional i.i.d. random packet-loss probability applied
	// on the wire (after the queue), independent of buffer overflow.
	LossProb float64
	// Cellular, when non-nil, modulates the bottleneck rate over time, as in
	// a cellular link with proportional-fair scheduling (§3.1.1).
	Cellular *CellularModel
	// Reorder, when non-nil, gives some packets an alternate path that
	// bypasses the bottleneck queue, producing realistic reordering (§5.1).
	Reorder *ReorderModel
	// TokenBucket, when non-nil, regulates the bottleneck like a shaper:
	// packets are released only when enough tokens (accumulating at
	// FillRate up to BurstBytes) are available, and are then serialized at
	// the full link Rate. §3.2 names token-bucket regulators as a
	// variable-bandwidth behaviour outside iBoxNet's single-FIFO model
	// family. Mutually exclusive with Cellular.
	TokenBucket *TokenBucketModel
	// PFCell, when non-nil, replaces the bottleneck's rate process with a
	// multi-user proportional-fair cellular cell (per-TTI Rayleigh fading
	// and PF scheduling, §3.1.1's citation [27]). Mutually exclusive with
	// Cellular and TokenBucket; Rate is ignored in favour of the cell's
	// allocation.
	PFCell *PFCellModel
	// RED, when non-nil, applies Random Early Detection at the bottleneck
	// instead of pure drop-tail (see REDModel).
	RED *REDModel
	// Jitter, when positive, adds NetEm-style random delay variation: each
	// packet's post-queue propagation is perturbed by |N(0, Jitter²)|,
	// clamped so delivery order is preserved (FIFO jitter cannot reorder;
	// use Reorder for that).
	Jitter sim.Time
	// Seed drives all stochastic behaviour of the path.
	Seed int64
}

// TokenBucketModel parameterizes a token-bucket shaper at the bottleneck.
type TokenBucketModel struct {
	FillRate   float64 // bytes per second of token accrual
	BurstBytes int     // bucket depth
}

// CellularModel modulates the bottleneck rate with a bounded geometric
// random walk: every Interval the multiplicative share is perturbed by
// exp(N(0, Sigma²)) and clamped to [MinShare, MaxShare]. This mimics the
// time-varying per-user allocation of a proportional-fair cellular
// scheduler without simulating the whole cell.
type CellularModel struct {
	Interval sim.Time // share update period (e.g. 100 ms)
	Sigma    float64  // volatility of the log share per step
	MinShare float64  // lower clamp on share of base rate
	MaxShare float64  // upper clamp on share of base rate
}

// ReorderModel sends each packet, with probability Prob, down an alternate
// path that skips the bottleneck queue and instead experiences an extra
// delay uniform in [ExtraMin, ExtraMax] on top of the propagation delay.
// When the queue is deep, alternate-path packets overtake queued ones,
// producing reordering correlated with congestion — the behaviour Fig 5 and
// Fig 8 study.
type ReorderModel struct {
	Prob     float64
	ExtraMin sim.Time
	ExtraMax sim.Time
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Rate <= 0 {
		return fmt.Errorf("netsim: rate must be positive, got %v", c.Rate)
	}
	if c.BufferBytes <= 0 {
		return fmt.Errorf("netsim: buffer must be positive, got %d", c.BufferBytes)
	}
	if c.PropDelay < 0 {
		return fmt.Errorf("netsim: negative propagation delay")
	}
	if c.LossProb < 0 || c.LossProb >= 1 {
		return fmt.Errorf("netsim: loss probability %v outside [0,1)", c.LossProb)
	}
	if c.Reorder != nil && (c.Reorder.Prob < 0 || c.Reorder.Prob > 1) {
		return fmt.Errorf("netsim: reorder probability %v outside [0,1]", c.Reorder.Prob)
	}
	if c.Cellular != nil {
		cm := c.Cellular
		if cm.Interval <= 0 || cm.MinShare <= 0 || cm.MaxShare < cm.MinShare {
			return fmt.Errorf("netsim: invalid cellular model %+v", *cm)
		}
	}
	if tb := c.TokenBucket; tb != nil {
		if tb.FillRate <= 0 || tb.BurstBytes <= 0 {
			return fmt.Errorf("netsim: invalid token bucket %+v", *tb)
		}
		if c.Cellular != nil {
			return fmt.Errorf("netsim: token bucket and cellular model are mutually exclusive")
		}
	}
	if pf := c.PFCell; pf != nil {
		if pf.PeakRate <= 0 {
			return fmt.Errorf("netsim: PF cell needs a positive peak rate")
		}
		if c.Cellular != nil || c.TokenBucket != nil {
			return fmt.Errorf("netsim: PF cell is mutually exclusive with cellular/token-bucket models")
		}
	}
	if r := c.RED; r != nil {
		if r.MinBytes <= 0 || r.MaxBytes <= r.MinBytes || r.MaxBytes > c.BufferBytes {
			return fmt.Errorf("netsim: invalid RED thresholds %+v (buffer %d)", *r, c.BufferBytes)
		}
	}
	if c.Jitter < 0 {
		return fmt.Errorf("netsim: negative jitter")
	}
	return nil
}

// Path is an instantiated network path bound to a scheduler. Flows send
// through Ports; open-loop cross traffic attaches via AddCrossTraffic.
type Path struct {
	sched *sim.Scheduler
	cfg   Config
	link  *link
	// The random sources of the stochastic subsystems, each its own
	// (Seed, stream) so that no subsystem's draws move another's. A path
	// builds only the sources its Config uses (nil otherwise): seeding one
	// costs ≈5 KB and a few microseconds, and an emulated iBoxNet path,
	// for one, uses none.
	lossRng, reorderRng, cellRng, jitterRng *randSource
	// access carries main-path packets through the access half of
	// PropDelay to the bottleneck; deliveries carries them from the
	// bottleneck to the receiver. Both delays are monotone by
	// construction (a constant, and a clamped FIFO time), so both are
	// delay lines rather than heap events.
	access, deliveries *sim.Line
	// lastDeliver is the latest scheduled main-path delivery, used to keep
	// jittered deliveries FIFO.
	lastDeliver sim.Time
	freePkts    *pkt
}

// randSource is a tiny wrapper so the stochastic subsystems consume
// independent streams.
type randSource struct {
	r interface{ Float64() float64 }
}

func (s *randSource) Float64() float64 { return s.r.Float64() }

// newRandSource returns the source of stream on seed.
func newRandSource(seed, stream int64) *randSource {
	return &randSource{sim.NewRand(seed, stream)}
}

// New creates a path on the given scheduler. It panics on an invalid
// configuration (construction-time misuse, not a runtime condition).
//
// A path with a Cellular model keeps a recurring rate-update event
// scheduled forever; drive such simulations with Scheduler.RunUntil rather
// than Run.
func New(sched *sim.Scheduler, cfg Config) *Path {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Path{
		sched:      sched,
		cfg:        cfg,
		access:     sched.NewLine(),
		deliveries: sched.NewLine(),
	}
	p.freePkts, _ = pktPool.Get().(*pkt)
	if cfg.LossProb > 0 {
		p.lossRng = newRandSource(cfg.Seed, 1)
	}
	if cfg.Reorder != nil {
		p.reorderRng = newRandSource(cfg.Seed, 2)
	}
	if cfg.Cellular != nil || cfg.PFCell != nil {
		p.cellRng = newRandSource(cfg.Seed, 3)
	}
	if cfg.Jitter > 0 {
		p.jitterRng = newRandSource(cfg.Seed, 5)
	}
	p.link = newLink(sched, cfg.Rate, cfg.BufferBytes)
	if tb := cfg.TokenBucket; tb != nil {
		p.link.tb = &tokenBucket{
			fillRate: tb.FillRate,
			burst:    float64(tb.BurstBytes),
			tokens:   float64(tb.BurstBytes), // starts full
		}
	}
	if pf := cfg.PFCell; pf != nil {
		startPFCell(sched, p.link, *pf, p.cellRng)
	}
	if r := cfg.RED; r != nil {
		p.link.red = &redState{
			cfg:  r.withDefaults(),
			rng:  newRandSource(cfg.Seed, 4),
			rate: cfg.Rate,
		}
	}
	if cm := cfg.Cellular; cm != nil {
		share := 1.0
		var step func()
		step = func() {
			// Geometric random walk on the share, clamped.
			g := gaussian(p.cellRng)
			share *= math.Exp(cm.Sigma * g)
			if share < cm.MinShare {
				share = cm.MinShare
			}
			if share > cm.MaxShare {
				share = cm.MaxShare
			}
			p.link.setRate(cfg.Rate * share)
			sched.After(cm.Interval, step)
		}
		sched.After(cm.Interval, step)
	}
	return p
}

// gaussian draws a standard normal via Box–Muller from a uniform source.
func gaussian(u *randSource) float64 {
	a := u.Float64()
	for a == 0 {
		a = u.Float64()
	}
	b := u.Float64()
	return math.Sqrt(-2*math.Log(a)) * math.Cos(2*math.Pi*b)
}

// Scheduler returns the scheduler the path runs on.
func (p *Path) Scheduler() *sim.Scheduler { return p.sched }

// Config returns the path's configuration.
func (p *Path) Config() Config { return p.cfg }

// CurrentRate returns the instantaneous bottleneck rate in bytes/sec.
func (p *Path) CurrentRate() float64 { return p.link.rate }

// QueueBytes returns the current bottleneck backlog in bytes.
func (p *Path) QueueBytes() int { return p.link.queuedBytes }

// Port is a flow's handle onto the path; it implements the send side of
// the cc.Network contract.
type Port struct {
	path *Path
	name string
}

// Port creates a named attachment point for one flow.
func (p *Path) Port(name string) *Port { return &Port{path: p, name: name} }

// Now returns the current simulation time.
func (pt *Port) Now() sim.Time { return pt.path.sched.Now() }

// Send injects a packet of the given size. Exactly one of onDeliver (with
// the receiver-side timestamp) or onDrop is eventually invoked, via the
// scheduler. Either callback may be nil.
func (pt *Port) Send(size int, onDeliver func(recv sim.Time), onDrop func()) {
	p := pt.path
	k := p.getPkt()
	k.size, k.onDeliver, k.onDrop = size, onDeliver, onDrop

	// Multipath: some packets bypass the bottleneck entirely.
	if rm := p.cfg.Reorder; rm != nil && p.reorderRng.Float64() < rm.Prob {
		extra := rm.ExtraMin
		if rm.ExtraMax > rm.ExtraMin {
			extra += sim.Time(p.reorderRng.Float64() * float64(rm.ExtraMax-rm.ExtraMin))
		}
		p.sched.After(p.cfg.PropDelay+extra, k.deliverFn)
		return
	}

	// Main path: pre-propagation, queue, post-propagation (+ optional
	// jitter and random loss).
	p.access.After(p.cfg.PropDelay/2, k.arriveFn)
}

// pkt is one packet in flight on a Path. Packets are recycled through the
// path's free list and carry their three stage callbacks as method values
// bound once, when the object is first made, so sending a packet schedules
// no fresh closure. A pkt is released the moment its fate is known —
// immediately before the caller's onDeliver/onDrop runs — which is safe
// because nothing refers to it afterwards: each stage hands the object to
// exactly one successor (scheduler event or link queue slot).
type pkt struct {
	path      *Path
	size      int
	onDeliver func(recv sim.Time)
	onDrop    func()
	next      *pkt // free-list link

	arriveFn  func() // reached the bottleneck after the access half of PropDelay
	servedFn  func() // finished serialization at the bottleneck
	deliverFn func() // reached the receiver
}

func (p *Path) getPkt() *pkt {
	k := p.freePkts
	if k == nil {
		k = &pkt{path: p}
		k.arriveFn, k.servedFn, k.deliverFn = k.arrive, k.served, k.deliver
		return k
	}
	p.freePkts = k.next
	k.path = p
	return k
}

// pktPool hands the free packet objects of a released path to the next
// path built, each pooled value the head of a free list: a process that
// runs one path after another allocates packet objects only beyond what
// its predecessors left. A free packet's path pointer is nil, so the list
// changes hands without a walk and keeps no path reachable.
var pktPool sync.Pool

// Release ends the path's run: call it once the scheduler it is bound to
// will be driven no further. The path's free packet objects go to the
// next path built, and the rings of its empty delay lines and bottleneck
// queue to the next ones that need them. Packets still in flight stay
// with the path, so driving the scheduler on after Release is still
// correct, merely not recycled.
func (p *Path) Release() {
	if p.freePkts != nil {
		pktPool.Put(p.freePkts)
		p.freePkts = nil
	}
	p.access.Release()
	p.deliveries.Release()
	p.link.release()
}

func (p *Path) putPkt(k *pkt) {
	k.path, k.onDeliver, k.onDrop = nil, nil, nil // a free packet keeps no path reachable
	k.next = p.freePkts
	p.freePkts = k
}

func (k *pkt) arrive() {
	if !k.path.link.enqueue(k.size, k.servedFn) {
		k.drop()
	}
}

func (k *pkt) served() {
	p := k.path
	if p.cfg.LossProb > 0 && p.lossRng.Float64() < p.cfg.LossProb {
		k.drop()
		return
	}
	post := p.cfg.PropDelay / 2
	if p.cfg.Jitter > 0 {
		post += sim.Time(math.Abs(gaussian(p.jitterRng)) * float64(p.cfg.Jitter))
	}
	at := p.sched.Now() + post
	// FIFO clamp: a small jitter draw must not overtake an earlier
	// large one.
	if at <= p.lastDeliver {
		at = p.lastDeliver + 1
	}
	p.lastDeliver = at
	p.deliveries.At(at, k.deliverFn)
}

func (k *pkt) deliver() {
	p, onDeliver := k.path, k.onDeliver
	p.putPkt(k)
	if onDeliver != nil {
		onDeliver(p.sched.Now())
	}
}

func (k *pkt) drop() {
	onDrop := k.onDrop
	k.path.putPkt(k)
	if onDrop != nil {
		onDrop()
	}
}

// AddCrossTraffic attaches an open-loop cross-traffic source whose packets
// enter the same bottleneck queue (and are discarded at the far end).
// Cross traffic originates adjacent to the bottleneck, so it skips the
// access propagation; overflowing cross-traffic packets drop silently.
func (p *Path) AddCrossTraffic(src CrossTraffic) {
	src.start(injector{sched: p.sched, enqueue: func(size int) {
		p.link.enqueue(size, nil)
	}})
}

// link is the bottleneck: a FIFO byte-limited queue drained at rate
// bytes/sec. Rate changes take effect at the next packet's service start.
// With a token bucket attached, each packet additionally waits until the
// bucket holds its size in tokens before serialization begins.
//
// The waiting packets sit in a power-of-two ring (head, n); the one being
// serialized has left the ring for the single inService slot. The two
// callbacks the link schedules are bound once, in newLink.
type link struct {
	sched       *sim.Scheduler
	rate        float64
	capacity    int
	queuedBytes int // waiting + in service
	queue       []queued
	head, n     int
	inService   queued
	busy        bool
	tb          *tokenBucket
	red         *redState

	finishFn    func()
	serveNextFn func()
}

// tokenBucket tracks shaper state; tokens refill lazily on access.
type tokenBucket struct {
	fillRate float64
	burst    float64
	tokens   float64
	last     sim.Time
}

// take refills the bucket to now, then either consumes size tokens and
// returns 0, or returns how long until size tokens will be available.
func (tb *tokenBucket) take(now sim.Time, size int) sim.Time {
	tb.tokens += tb.fillRate * (now - tb.last).Seconds()
	tb.last = now
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	need := float64(size) - tb.tokens
	if need <= 0 {
		tb.tokens -= float64(size)
		return 0
	}
	wait := sim.Time(need / tb.fillRate * float64(sim.Second))
	if wait < 1 {
		wait = 1
	}
	return wait
}

type queued struct {
	size int
	done func() // invoked when the packet finishes service; may be nil
}

func newLink(sched *sim.Scheduler, rate float64, capacity int) *link {
	l := &link{sched: sched, rate: rate, capacity: capacity}
	l.finishFn, l.serveNextFn = l.finish, l.serveNext
	return l
}

func (l *link) setRate(r float64) {
	if r > 0 {
		l.rate = r
	}
}

// enqueue adds a packet; returns false on drop (RED early drop or
// drop-tail overflow).
func (l *link) enqueue(size int, done func()) bool {
	if l.red != nil && !l.red.admit(l.sched.Now(), l.queuedBytes) {
		return false
	}
	if l.queuedBytes+size > l.capacity {
		return false
	}
	l.queuedBytes += size
	if l.n == len(l.queue) {
		l.growQueue()
	}
	l.queue[(l.head+l.n)&(len(l.queue)-1)] = queued{size, done}
	l.n++
	if !l.busy {
		l.serveNext()
	}
	return true
}

// queuePool holds the rings of released links (link.release), each of a
// power-of-two length and empty.
var queuePool sync.Pool

// growQueue doubles the ring, unrolling it so the head is at index 0. A
// link without a ring first takes one a released link left.
func (l *link) growQueue() {
	if len(l.queue) == 0 {
		if q, _ := queuePool.Get().(*[]queued); q != nil {
			l.queue, l.head = *q, 0
			return
		}
	}
	grown := make([]queued, max(2*len(l.queue), 16))
	for i := 0; i < l.n; i++ {
		grown[i] = l.queue[(l.head+i)&(len(l.queue)-1)]
	}
	l.queue, l.head = grown, 0
}

// release hands the link's ring to the next link that needs one, if no
// packet waits in it.
func (l *link) release() {
	if l.n > 0 || len(l.queue) == 0 {
		return
	}
	q := l.queue
	l.queue, l.head = nil, 0
	queuePool.Put(&q)
}

func (l *link) serveNext() {
	if l.n == 0 {
		l.busy = false
		if l.red != nil {
			l.red.markIdle(l.sched.Now())
		}
		return
	}
	l.busy = true
	head := &l.queue[l.head]
	if l.tb != nil {
		if wait := l.tb.take(l.sched.Now(), head.size); wait > 0 {
			// Not enough tokens yet: hold the head until the bucket refills.
			l.sched.After(wait, l.serveNextFn)
			return
		}
	}
	l.inService = *head
	*head = queued{}
	l.head = (l.head + 1) & (len(l.queue) - 1)
	l.n--
	service := sim.Time(float64(l.inService.size) / l.rate * float64(sim.Second))
	if service < 1 {
		service = 1
	}
	l.sched.After(service, l.finishFn)
}

// finish completes the in-service packet: it leaves the backlog, its
// owner is told, and the next waiting packet (if any) starts service.
func (l *link) finish() {
	done := l.inService.done
	l.queuedBytes -= l.inService.size
	l.inService = queued{}
	if done != nil {
		done()
	}
	l.serveNext()
}
