// Package session turns a learned path artifact into a *live emulation
// session*: a long-lived stateful object that runs a congestion-control
// sender closed-loop against the model's per-packet delay/loss
// predictions, streams per-packet and per-RTT telemetry to any number
// of subscribers, and accepts mid-session path mutations (bandwidth
// rescale, loss/reorder bursts, checkpoint swap) the way `tc` changes a
// live interface.
//
// Each session owns a private deterministic simulation (a sim.Scheduler
// driving a cc.Flow over the artifact, exactly core.Model.Run's
// closed-loop setup) and one run goroutine that advances it in fixed
// virtual-time ticks, pacing virtual against wall time by Config.Speed.
// All virtual-side state is touched only by the run goroutine, or by the
// pool job it waits on; control operations (pause, resume, mutate,
// close) rendezvous with it over an unbuffered channel and execute
// between ticks, so a mutation lands at a tick boundary with the
// scheduler quiescent.
//
// Determinism: the telemetry stream's content depends only on the
// artifact, the sender, and the seed. Wall pacing, subscriber count and
// pool scheduling decide *when* events are published, never what they
// say — the same (checkpoint, sender, seed) yields a byte-identical
// stream, serial or pooled (see TestSessionDeterministic).
package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ibox/internal/cc"
	"ibox/internal/iboxml"
	"ibox/internal/iboxnet"
	"ibox/internal/par"
	"ibox/internal/sim"
)

// Model kinds a session can run.
const (
	KindIBoxNet = "iboxnet"
	KindIBoxML  = "iboxml"
)

// State is a session's lifecycle state.
type State int32

const (
	// Running sessions advance virtual time.
	Running State = iota
	// Paused sessions hold virtual time still but keep their state and
	// subscribers; Resume continues exactly where Pause left off.
	Paused
	// Closed sessions are finished (client close, drain, or the
	// configured duration completing) and will never emit again.
	Closed
	// Expired sessions were reaped by the idle-TTL policy.
	Expired
)

func (st State) String() string {
	switch st {
	case Running:
		return "running"
	case Paused:
		return "paused"
	case Closed:
		return "closed"
	case Expired:
		return "expired"
	}
	return fmt.Sprintf("state(%d)", int32(st))
}

// terminal reports whether the state is final.
func (st State) terminal() bool { return st == Closed || st == Expired }

// ErrClosed is returned by control operations on a finished session.
var ErrClosed = errors.New("session: closed")

// Config parameterizes one session. Zero values select defaults.
type Config struct {
	// ID names the session (assigned by the Manager when empty).
	ID string
	// Tenant attributes the session for per-tenant caps.
	Tenant string
	// Checkpoint is the registry id of the artifact (display + swap
	// bookkeeping).
	Checkpoint string

	// Kind selects the artifact type; exactly one of Net/ML applies.
	Kind    string
	Net     iboxnet.Params  // when Kind == KindIBoxNet
	Variant iboxnet.Variant // iboxnet emulation variant
	ML      *iboxml.Model   // when Kind == KindIBoxML

	// Protocol is the congestion-control sender, any cc.Protocols() name.
	Protocol string
	// Seed drives all of the session's randomness.
	Seed int64

	// Speed is the virtual/wall time ratio: 1 = real time, 10 = ten
	// virtual seconds per wall second. 0 selects 1; negative runs
	// unpaced (as fast as the scheduler steps).
	Speed float64
	// Tick is the virtual-time step per run-loop iteration (the
	// granularity at which mutations land); default 50ms.
	Tick sim.Time
	// Summary is the rollup-event cadence in virtual time; default 200ms,
	// at least 1ms.
	Summary sim.Time
	// Duration bounds the session's virtual lifetime; default 3600s.
	Duration sim.Time
	// PacketEvery emits a packet event for every Nth acknowledged
	// packet; default 1 (every packet), negative disables packet events.
	PacketEvery int
	// PacketSize is the sender's packet size in bytes; default 1500.
	PacketSize int
	// AckDelay is the return-path delay; default Net.PropDelay for
	// iboxnet artifacts, the cc harness default otherwise.
	AckDelay sim.Time
	// RingSize bounds the replay buffer of events a late or slow
	// subscriber can catch up from; default 4096.
	RingSize int

	// Pool, when non-nil, runs each tick's simulation work on the shared
	// worker pool so sessions cannot oversubscribe the cores; nil steps
	// inline on the run goroutine.
	Pool *par.Pool

	// Score, when non-nil, is invoked at every path (re)build with the
	// session's current checkpoint id and returns that model's per-packet
	// drift observer — one (PIT, NLL) pair per ML-predicted delay against
	// the model's own group distribution — or nil to disable scoring.
	// Re-resolving per build keeps live drift attributed to the model
	// actually producing packets after a mid-session checkpoint swap
	// (including a session that starts on an iboxnet artifact and swaps
	// to an ML one). The returned observer runs in simulation context;
	// it must not block.
	Score func(model string) func(pit, nll float64)

	// OnClose fires once, from the run goroutine, after the session
	// reaches a terminal state (the Manager uses it to unregister).
	OnClose func(*Session)

	// onEvent and onMutate are the Manager's metric taps.
	onEvent  func(n int)
	onMutate func()
}

// defaultTick is Config.Tick's default.
const defaultTick = 50 * sim.Millisecond

func (c Config) withDefaults() Config {
	if c.Speed == 0 {
		c.Speed = 1
	}
	if c.Tick <= 0 {
		c.Tick = defaultTick
	}
	if c.Summary <= 0 {
		c.Summary = 200 * sim.Millisecond
	}
	if c.Duration <= 0 {
		c.Duration = 3600 * sim.Second
	}
	if c.PacketEvery == 0 {
		c.PacketEvery = 1
	}
	if c.PacketSize <= 0 {
		c.PacketSize = 1500
	}
	if c.AckDelay <= 0 && c.Kind == KindIBoxNet && c.Net.PropDelay > 0 {
		c.AckDelay = c.Net.PropDelay
	}
	if c.RingSize <= 0 {
		c.RingSize = 4096
	}
	return c
}

// ctlOp is one control operation awaiting execution in the run
// goroutine. The ctl channel is unbuffered, so a successful send proves
// the run goroutine took the op and will reply.
type ctlOp struct {
	fn    func() error
	reply chan error
}

// Session is one live emulation session. See the package comment for
// the concurrency structure.
type Session struct {
	cfg Config

	// Virtual-side state: run goroutine (and the sim callbacks it
	// drives) only.
	sched    *sim.Scheduler
	flow     *cc.Flow
	sender   cc.Sender
	shim     *pathShim
	net      iboxnet.Params
	variant  iboxnet.Variant
	ml       *iboxml.Model
	bwScale  float64
	rebuilds int
	end      sim.Time
	pending  []record // emitted since the last publish
	acks     int64
	lost     int64
	sumBase  int64 // delivered bytes at the last summary event

	// infoMu guards the fields a checkpoint swap rewrites (applyMutation,
	// on the run goroutine) and Info reads from any goroutine. The run
	// goroutine is the only writer, so its own reads (buildNetwork) need
	// no lock.
	infoMu     sync.Mutex
	kind       string
	checkpoint string

	// Run-loop scratch: the tick's target, the job that steps to it
	// (bound once, so handing a tick to the pool allocates nothing), and
	// the pacing timer.
	stepTarget sim.Time
	stepFn     func() error
	timer      *time.Timer

	// Control plane.
	ctl  chan ctlOp
	done chan struct{}
	ring *ring

	state      atomic.Int32
	vt         atomic.Int64 // published virtual time, ns
	events     atomic.Int64
	mutations  atomic.Int64
	subs       atomic.Int64
	lastActive atomic.Int64 // unix nanos of the last client interaction
	createdAt  time.Time
}

// New validates cfg, builds the session's private simulation, and
// starts its run goroutine in the Running state.
func New(cfg Config) (*Session, error) {
	s, err := build(cfg)
	if err != nil {
		return nil, err
	}
	go s.run()
	return s, nil
}

// build is New without the run goroutine: the session is Running, but
// nothing steps it yet.
func build(cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	if cfg.ID == "" {
		return nil, fmt.Errorf("session: Config.ID is required")
	}
	if cfg.Kind != KindIBoxNet && cfg.Kind != KindIBoxML {
		return nil, fmt.Errorf("session: unknown model kind %q", cfg.Kind)
	}
	if cfg.Kind == KindIBoxML && cfg.ML == nil {
		return nil, fmt.Errorf("session: iboxml session requires a model")
	}
	// A rollup every few simulated nanoseconds would bury each tick in
	// millions of summary events.
	if cfg.Summary < sim.Millisecond {
		return nil, fmt.Errorf("session: summary cadence %gms is under 1ms", cfg.Summary.Millis())
	}
	sender, err := cc.NewSender(cfg.Protocol, cfg.PacketSize)
	if err != nil {
		return nil, err
	}

	s := &Session{
		cfg:        cfg,
		sched:      sim.NewScheduler(),
		sender:     sender,
		kind:       cfg.Kind,
		net:        cfg.Net,
		variant:    cfg.Variant,
		ml:         cfg.ML,
		bwScale:    1,
		end:        cfg.Duration,
		checkpoint: cfg.Checkpoint,
		ctl:        make(chan ctlOp),
		done:       make(chan struct{}),
		ring:       newRing(cfg.RingSize),
		createdAt:  time.Now(),
	}
	s.touch()
	s.stepFn = func() error {
		for n := s.ticksPerJob(); ; n-- {
			s.sched.RunUntil(s.stepTarget)
			if n == 1 || s.stepTarget >= s.end {
				return nil
			}
			s.publishPending()
			s.stepTarget = min(s.stepTarget+s.cfg.Tick, s.end)
		}
	}
	s.shim = &pathShim{sched: s.sched, rng: sim.NewRand(cfg.Seed, 911)}
	inner, err := s.buildNetwork(0)
	if err != nil {
		return nil, err
	}
	s.shim.inner = inner
	s.flow = cc.NewFlow(s.sched, s.shim, sender, cc.FlowConfig{
		PacketSize:     cfg.PacketSize,
		AckDelay:       cfg.AckDelay,
		Duration:       cfg.Duration,
		OnAck:          s.onAck,
		OnLossDetected: s.onLoss,
		NoTrace:        true, // telemetry is the event stream; a trace would grow for the session's whole life
	})
	s.flow.Start()
	var sumTick func()
	sumTick = func() {
		s.emitSummary()
		if s.sched.Now()+cfg.Summary <= s.end {
			s.sched.After(cfg.Summary, sumTick)
		}
	}
	s.sched.After(cfg.Summary, sumTick)

	s.state.Store(int32(Running))
	return s, nil
}

// Accessors safe from any goroutine.

// ID returns the session's identifier.
func (s *Session) ID() string { return s.cfg.ID }

// Tenant returns the session's tenant attribution.
func (s *Session) Tenant() string { return s.cfg.Tenant }

// State returns the current lifecycle state.
func (s *Session) State() State { return State(s.state.Load()) }

// Done is closed once the session reaches a terminal state and its run
// goroutine has exited.
func (s *Session) Done() <-chan struct{} { return s.done }

// Subscribers reports how many event subscriptions are attached.
func (s *Session) Subscribers() int { return int(s.subs.Load()) }

// touch records a client interaction for the idle-TTL reaper.
func (s *Session) touch() { s.lastActive.Store(time.Now().UnixNano()) }

// Info is a session's control-plane snapshot (GET /sessions, /statusz).
type Info struct {
	ID          string    `json:"id"`
	Tenant      string    `json:"tenant"`
	Checkpoint  string    `json:"checkpoint"`
	Kind        string    `json:"kind"`
	Protocol    string    `json:"protocol"`
	Seed        int64     `json:"seed"`
	State       string    `json:"state"`
	VTSeconds   float64   `json:"vt_s"`
	Events      int64     `json:"events"`
	Mutations   int64     `json:"mutations"`
	Subscribers int       `json:"subscribers"`
	CreatedAt   time.Time `json:"created_at"`
	IdleS       float64   `json:"idle_s"`
}

// Info snapshots the session's control-plane view.
func (s *Session) Info() Info {
	s.infoMu.Lock()
	ckpt := s.checkpoint
	kind := s.kind
	s.infoMu.Unlock()
	return Info{
		ID:          s.cfg.ID,
		Tenant:      s.cfg.Tenant,
		Checkpoint:  ckpt,
		Kind:        kind,
		Protocol:    s.cfg.Protocol,
		Seed:        s.cfg.Seed,
		State:       s.State().String(),
		VTSeconds:   sim.Time(s.vt.Load()).Seconds(),
		Events:      s.events.Load(),
		Mutations:   s.mutations.Load(),
		Subscribers: s.Subscribers(),
		CreatedAt:   s.createdAt,
		IdleS:       time.Since(time.Unix(0, s.lastActive.Load())).Seconds(),
	}
}

// Control operations. Each rendezvouses with the run goroutine and
// executes between ticks.

// do submits fn to the run goroutine and waits for its result.
func (s *Session) do(fn func() error) error {
	op := ctlOp{fn: fn, reply: make(chan error, 1)}
	select {
	case s.ctl <- op:
		return <-op.reply
	case <-s.done:
		return ErrClosed
	}
}

// Pause suspends virtual time. Idempotent.
func (s *Session) Pause() error {
	s.touch()
	return s.do(func() error {
		if s.State() == Paused {
			return nil
		}
		s.state.Store(int32(Paused))
		s.emitState(Paused, "client")
		s.publishPending()
		return nil
	})
}

// Resume continues a paused session. Idempotent.
func (s *Session) Resume() error {
	s.touch()
	return s.do(func() error {
		if s.State() == Running {
			return nil
		}
		s.state.Store(int32(Running))
		s.emitState(Running, "client")
		s.publishPending()
		return nil
	})
}

// Mutate applies a live path change at the next tick boundary.
func (s *Session) Mutate(mu Mutation) error {
	s.touch()
	return s.do(func() error { return s.mutate(mu) })
}

// mutate is Mutate's body, run between ticks on the run goroutine.
func (s *Session) mutate(mu Mutation) error {
	applied, err := s.applyMutation(mu)
	if err != nil {
		return err
	}
	s.mutations.Add(1)
	if s.cfg.onMutate != nil {
		s.cfg.onMutate()
	}
	s.emitEncoded(Event{
		Type:     EventMutate,
		VT:       s.sched.Now().Seconds(),
		Mutation: applied,
	})
	s.publishPending()
	return nil
}

// Close finishes the session with the given reason ("client", "drain").
// Closing a finished session is a no-op.
func (s *Session) Close(reason string) error {
	err := s.do(func() error {
		s.finish(Closed, reason)
		return nil
	})
	if errors.Is(err, ErrClosed) {
		return nil
	}
	return err
}

// expire is Close for the idle-TTL reaper. The reaper's scan decided
// the session was idle *before* this op reached the run goroutine, so
// the idle conditions are re-checked here: a subscriber that attached
// (or any control-plane touch) in that window aborts the expiry instead
// of having its just-opened stream cut with an "idle ttl" end event.
// now is the reaper's scan time, ttl the idle deadline.
func (s *Session) expire(now time.Time, ttl time.Duration) {
	err := s.do(func() error {
		if s.Subscribers() > 0 {
			return nil
		}
		if ttl > 0 && now.Sub(time.Unix(0, s.lastActive.Load())) < ttl {
			return nil
		}
		s.finish(Expired, "idle ttl")
		return nil
	})
	_ = err
}

// The run loop.

func (s *Session) run() {
	defer func() {
		s.ring.closeRing()
		close(s.done)
		if s.cfg.OnClose != nil {
			s.cfg.OnClose(s)
		}
	}()

	s.emitState(Running, "created")
	s.publishPending()

	var wallTick time.Duration
	if s.cfg.Speed > 0 {
		wallTick = time.Duration(float64(s.cfg.Tick) / s.cfg.Speed)
	}
	next := time.Now()
	for {
		if !s.drainCtl() {
			return
		}
		if s.State() == Paused {
			// Hold virtual time; block until the next control op.
			op := <-s.ctl
			op.reply <- op.fn()
			next = time.Now() // re-anchor wall pacing after the pause
			continue
		}

		target := s.step(min(s.sched.Now()+s.cfg.Tick, s.end))
		s.publishPending()
		if target >= s.end {
			s.finish(Closed, "complete")
			return
		}

		if wallTick > 0 {
			next = next.Add(wallTick)
			if !s.sleepUntil(next) {
				return
			}
			// A long scheduler stall (or debugger pause) must not trigger
			// a burst of catch-up ticks.
			if time.Until(next) < -time.Second {
				next = time.Now()
			}
		}
	}
}

// drainCtl executes queued control ops without blocking; false once
// the session is terminal.
func (s *Session) drainCtl() bool {
	for {
		select {
		case op := <-s.ctl:
			op.reply <- op.fn()
			if s.State().terminal() {
				return false
			}
		default:
			return !s.State().terminal()
		}
	}
}

// sleepUntil paces the run loop against the wall clock, staying
// responsive to control ops; false once the session is terminal.
func (s *Session) sleepUntil(deadline time.Time) bool {
	for {
		d := time.Until(deadline)
		if d <= 0 {
			return !s.State().terminal()
		}
		if s.timer == nil {
			s.timer = time.NewTimer(d)
		} else {
			s.timer.Reset(d)
		}
		select {
		case op := <-s.ctl:
			if !s.timer.Stop() {
				// Already fired: empty the channel so the next Reset starts
				// clean. (Should a stale tick slip through anyway, the loop
				// just finds the deadline not reached and re-arms.)
				select {
				case <-s.timer.C:
				default:
				}
			}
			op.reply <- op.fn()
			if s.State().terminal() {
				return false
			}
			if s.State() == Paused {
				return true // run loop re-enters its paused branch
			}
		case <-s.timer.C:
		}
	}
}

// unpacedTicksPerJob is how many ticks an unpaced iBoxNet session at
// the default tick steps per job. That is the traffic it was measured
// on: session_live's unpaced half, cubic over a learnt path, ≈40 acks
// per 50 ms tick. There, handing each tick to a pool worker and back
// (two goroutine switches) took ≈12 % of the daemon's CPU, and the
// session used ≈0.00031 CPU-s per virtual second, so a four-tick job
// holds its worker for ≈60 µs. An iBoxML tick runs the LSTM for every
// packet, next to which the hand-off is no cost worth saving.
const unpacedTicksPerJob = 4

// ticksPerJob is how many ticks the next step job runs: one, except for
// an unpaced iBoxNet session at the default tick (unpacedTicksPerJob).
// It reads the current kind, which a checkpoint swap may change.
func (s *Session) ticksPerJob() int {
	if s.cfg.Speed < 0 && s.cfg.Tick == defaultTick && s.kind == KindIBoxNet {
		return unpacedTicksPerJob
	}
	return 1
}

// step advances the simulation to target, or ticksPerJob−1 ticks past
// it, publishing each tick's events but the last as the run loop would,
// and returns the time it reached. It runs as one job on the shared
// pool when configured (the pool serializes sessions against request
// work without oversubscribing cores); control ops wait for the job to
// end. A closed pool — the server is past drain — steps inline so the
// session can still finish.
func (s *Session) step(target sim.Time) sim.Time {
	s.stepTarget = target
	if s.cfg.Pool == nil || s.cfg.Pool.Do(context.Background(), s.stepFn) != nil {
		s.stepFn()
	}
	s.vt.Store(int64(s.sched.Now()))
	return s.stepTarget
}

// finish moves the session to a terminal state (idempotent).
func (s *Session) finish(st State, reason string) {
	if s.State().terminal() {
		return
	}
	s.state.Store(int32(st))
	s.emitState(st, reason)
	s.publishPending()
}

// Event generation (run goroutine / sim callbacks only).

// emit queues a zeroed record for the next publish and returns it, to be
// filled in place: a record is 96 bytes, too big to copy twice per
// event as a by-value argument would. An event JSON cannot carry (a NaN
// or an infinity) is dropped when published, before it is numbered, so
// the published sequence stays contiguous.
func (s *Session) emit() *record {
	s.pending = append(s.pending, record{})
	return &s.pending[len(s.pending)-1]
}

// emitEncoded queues one of the rare events that are encoded as they
// happen (state, mutate).
func (s *Session) emitEncoded(ev Event) {
	if raw, ok := encodeRaw(&ev); ok {
		r := s.emit()
		r.kind, r.raw = recEncoded, raw
	}
}

// onAck is the cc.Flow per-ack telemetry hook.
func (s *Session) onAck(ack cc.Ack) {
	s.acks++
	if s.cfg.PacketEvery < 0 || s.acks%int64(s.cfg.PacketEvery) != 0 {
		return
	}
	r := s.emit()
	r.kind, r.vt = recPacket, ack.AckTime.Seconds()
	r.n[0], r.n[1], r.n[2], r.n[3] = ack.Seq, int64(s.sender.Window()), int64(s.flow.Inflight()), ack.Delivered
	r.x[0], r.x[1] = ack.OWD().Millis(), ack.RTT().Millis()
}

// onLoss is the cc.Flow loss-detection hook.
func (s *Session) onLoss(at sim.Time, seq int64) {
	s.lost++
	if s.cfg.PacketEvery < 0 {
		return
	}
	r := s.emit()
	r.kind, r.vt = recLoss, at.Seconds()
	r.n[0], r.n[1] = seq, int64(s.sender.Window())
}

// emitSummary rolls up the last summary interval.
func (s *Session) emitSummary() {
	delivered := s.flow.DeliveredBytes()
	thr := float64(delivered-s.sumBase) * 8 / s.cfg.Summary.Seconds()
	s.sumBase = delivered
	r := s.emit()
	r.kind, r.vt = recSummary, s.sched.Now().Seconds()
	r.n = [5]int64{int64(s.sender.Window()), int64(s.flow.Inflight()), s.flow.Sent(), delivered, s.lost}
	r.x = [2]float64{s.flow.SRTT().Millis(), thr}
}

// emitState appends a lifecycle event.
func (s *Session) emitState(st State, reason string) {
	s.emitEncoded(Event{
		Type:   EventState,
		VT:     s.sched.Now().Seconds(),
		State:  st.String(),
		Reason: reason,
	})
}

// publishPending publishes the buffered events, in order, as the next
// events of the stream.
func (s *Session) publishPending() {
	n := s.ring.publish(s.pending)
	s.pending = s.pending[:0]
	if n == 0 {
		return
	}
	s.vt.Store(int64(s.sched.Now()))
	s.events.Add(int64(n))
	if s.cfg.onEvent != nil {
		s.cfg.onEvent(n)
	}
}
