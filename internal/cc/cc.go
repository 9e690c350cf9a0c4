// Package cc implements the congestion-control protocols used throughout
// the paper's evaluation — TCP Cubic (the paper's "control" protocol A),
// TCP Vegas (the delay-sensitive "treatment" protocol B), TCP Reno, a
// simplified BBR, a constant-bit-rate sender, and an RTC-style delay-
// gradient rate controller — together with the ACK-clocked transport
// harness (Flow) that runs any of them over any network path.
//
// The central property this package provides is the counterfactual
// machinery of §2: the same Sender implementation runs closed-loop both on
// the ground-truth simulator (internal/netsim) and on the learnt iBoxNet
// emulator (internal/iboxnet), because both expose the Network interface.
package cc

import (
	"fmt"
	"sync"

	"ibox/internal/sim"
	"ibox/internal/trace"
)

// Network is the one-way data path a flow sends over. Packets are injected
// with Send; for each packet exactly one of the callbacks eventually fires
// on the simulation scheduler: onDeliver with the receiver-side timestamp,
// or onDrop. The return (ACK) path is modelled by the Flow itself as a
// fixed delay, matching the iBoxNet abstraction where the learnt
// parameters describe the one-way data direction.
type Network interface {
	Now() sim.Time
	Send(size int, onDeliver func(recv sim.Time), onDrop func())
}

// Ack carries the receiver feedback for one delivered packet.
type Ack struct {
	Seq      int64
	Size     int
	SendTime sim.Time // when the packet left the sender
	RecvTime sim.Time // receiver timestamp (one-way delay = RecvTime−SendTime)
	AckTime  sim.Time // when the ack reached the sender (RTT = AckTime−SendTime)
	// DeliveredAtSend is the flow's cumulative delivered byte count at the
	// moment this packet was sent; with Delivered it enables BBR-style
	// delivery-rate sampling.
	DeliveredAtSend int64
	Delivered       int64 // cumulative delivered bytes including this packet
}

// RTT returns the measured round-trip time for the acked packet.
func (a Ack) RTT() sim.Time { return a.AckTime - a.SendTime }

// OWD returns the measured one-way delay for the acked packet.
func (a Ack) OWD() sim.Time { return a.RecvTime - a.SendTime }

// Sender is a congestion-control algorithm. The Flow harness drives it
// with acknowledgment and loss events and consults Window (in packets)
// and/or PacingRate (bytes/sec) to decide when to transmit.
//
// Window-based senders (Cubic, Vegas, Reno) return PacingRate() == 0 and a
// positive Window(). Rate-based senders (CBR, RTC) return Window() == 0
// and a positive PacingRate(). Hybrid senders (BBR) return both: sends are
// paced at PacingRate and additionally capped by Window.
type Sender interface {
	// Name identifies the algorithm, e.g. "cubic".
	Name() string
	// OnAck is invoked when an acknowledgment arrives at the sender.
	OnAck(now sim.Time, ack Ack)
	// OnLoss is invoked once per packet the harness declares lost (by
	// duplicate-ack reordering threshold or retransmission timeout).
	OnLoss(now sim.Time, seq int64, sendTime sim.Time)
	// Window returns the congestion window in packets (0 = unlimited/not
	// window-controlled).
	Window() int
	// PacingRate returns the send rate in bytes/sec (0 = ack-clocked only).
	PacingRate() float64
}

// FlowConfig parameterizes a transport harness run.
type FlowConfig struct {
	PacketSize int      // bytes per packet; default 1500
	AckDelay   sim.Time // return-path delay; default 10 ms
	Start      sim.Time // when the flow begins sending
	Duration   sim.Time // how long the flow sends; required
	// DupAckThreshold is the reordering tolerance before a gap is declared
	// a loss; default 3 (TCP's classic dupack threshold).
	DupAckThreshold int
	// MinRTO bounds the retransmission-timeout fallback; default 200 ms.
	MinRTO sim.Time
	// MaxInflight caps outstanding packets as a safety net; default 10000.
	MaxInflight int
	// Bytes, when positive, ends the flow after that many bytes have been
	// sent (an application-limited transfer, e.g. one video chunk) — the
	// flow still also respects Duration as an upper bound.
	Bytes int64
	// OnComplete, when non-nil, fires once when every sent packet has been
	// acked or declared lost after the flow stopped sending — the moment a
	// byte-limited transfer is finished.
	OnComplete func(at sim.Time)
	// OnAck, when non-nil, observes every acknowledgment the harness
	// processes, after the sender's own OnAck ran — the per-packet
	// telemetry tap used by live emulation sessions (internal/session).
	// The flow's accessors (Inflight, SRTT, …) are valid inside the hook.
	OnAck func(ack Ack)
	// OnLossDetected, when non-nil, observes every packet the harness
	// declares lost (dupack gap or RTO), after the sender's OnLoss ran.
	OnLossDetected func(at sim.Time, seq int64)
	// NoTrace stops the flow recording its packet trace, for callers that
	// never read Trace(): a long-lived flow (a live session, a competing
	// cross-traffic flow) otherwise grows by one record per packet forever.
	NoTrace bool
}

func (c *FlowConfig) withDefaults() FlowConfig {
	out := *c
	if out.PacketSize <= 0 {
		out.PacketSize = 1500
	}
	if out.AckDelay <= 0 {
		out.AckDelay = 10 * sim.Millisecond
	}
	if out.DupAckThreshold <= 0 {
		out.DupAckThreshold = 3
	}
	if out.MinRTO <= 0 {
		out.MinRTO = 200 * sim.Millisecond
	}
	if out.MaxInflight <= 0 {
		out.MaxInflight = 10000
	}
	return out
}

// Flow is the transport harness: it ack-clocks or paces a Sender over a
// Network, detects losses, and records the input–output packet trace.
//
// In steady state sending a packet allocates nothing: the per-packet state
// (outPacket) is recycled through a free list and carries the callbacks it
// hands to the Network and the scheduler as method values bound once.
type Flow struct {
	sched  *sim.Scheduler
	net    Network
	sender Sender
	cfg    FlowConfig

	nextSeq int64
	// window holds the outstanding packets, indexed by sequence number
	// modulo its (power-of-two) length; a slot is nil once its packet was
	// acked or declared lost. front is the lowest sequence number that may
	// still be outstanding. Sequence numbers are sent in order, so
	// gap-based loss detection scans up from front, visiting each packet
	// once over the flow's lifetime, and an RTO finds the outstanding
	// packets already in sequence order.
	window     []*outPacket
	front      int64
	inflight   int // packets in window
	highestAck int64
	delivered  int64 // cumulative delivered bytes
	srtt       sim.Time
	rttvar     sim.Time
	rtoTimer   *sim.Timer
	acks       *sim.Line // returning acks, each AckDelay after delivery
	pacing     *sim.Timer
	pacingNext sim.Time
	done       bool
	free       *outPacket

	// The packet records: trace, once Trace was called or the flow
	// records into a caller's slice (RecordInto); until then, the first
	// recorded records of chunks, which are borrowed from chunkPool.
	chunks   []*recordChunk
	recorded int
	trace    *trace.Trace
	taken    bool // Trace was called
}

// chunkLen is the number of packet records in one recording chunk.
const chunkLen = 512

// recordChunk is one fixed-size block of a flow's packet records.
type recordChunk [chunkLen]trace.Packet

// chunkPool recycles recording chunks across flows: a finished flow's
// chunks record the next flow's packets, so recording allocates little
// beyond the exact-size trace each flow returns.
var chunkPool = sync.Pool{New: func() any { return new(recordChunk) }}

// packetPool hands the free packet objects of a flow whose trace was
// taken to the next flow built, each pooled value the head of a free
// list: a flow allocates packet objects only beyond what its
// predecessors left. A free packet's flow pointer is nil, so the list
// changes hands without a walk and keeps no flow reachable.
var packetPool sync.Pool

// windowPool hands the window of a flow that finished to the next flow
// built, so that flow starts with the room its predecessor grew to.
var windowPool sync.Pool

// outPacket is one packet's transport state, from transmit until both
// parties are finished with it: the flow (it was acked or declared lost)
// and the network (it reported the drop, or the delivery whose ack has
// since arrived). The Network contract — exactly one of onDeliver/onDrop
// fires, once — is what makes recycling it safe.
type outPacket struct {
	flow     *Flow
	seq      int64
	size     int
	sendTime sim.Time
	delAtSnd int64
	traceIdx int
	recv     sim.Time // receiver timestamp, once delivered
	tracked  bool     // still in the flow's window
	inNet    bool     // the network (or the returning ack) still holds it
	next     *outPacket

	deliveredFn func(recv sim.Time)
	droppedFn   func()
	ackedFn     func()
}

// NewFlow builds a harness for one sender over one network.
func NewFlow(sched *sim.Scheduler, net Network, sender Sender, cfg FlowConfig) *Flow {
	if cfg.Duration <= 0 {
		panic(fmt.Sprintf("cc: flow duration must be positive, got %v", cfg.Duration))
	}
	f := &Flow{
		sched:      sched,
		net:        net,
		sender:     sender,
		cfg:        cfg.withDefaults(),
		highestAck: -1,
	}
	if w, _ := windowPool.Get().(*[]*outPacket); w != nil {
		f.window = *w
	} else {
		f.window = make([]*outPacket, 64)
	}
	f.free, _ = packetPool.Get().(*outPacket)
	f.rtoTimer = sched.NewTimer(f.onRTO)
	f.pacing = sched.NewTimer(f.trySend)
	f.acks = sched.NewLine()
	return f
}

// Start schedules the flow's first transmission opportunity.
func (f *Flow) Start() {
	at := f.cfg.Start
	if at < f.sched.Now() {
		at = f.sched.Now()
	}
	f.sched.At(at, func() {
		f.pacingNext = f.sched.Now()
		f.trySend()
	})
}

// Trace returns the packet trace recorded so far (empty under
// FlowConfig.NoTrace); read it only after the simulation has been driven
// past the flow's end. Unless the flow records into a caller's slice
// (RecordInto), the trace is an allocation of its own, holding exactly
// the packets sent, so keeping it keeps neither the flow nor its
// scheduler reachable. Every call returns the same trace: a packet the
// network delivers after the first call is marked delivered in it, and
// one sent after it is appended to it.
func (f *Flow) Trace() *trace.Trace {
	if f.taken {
		return f.trace
	}
	f.taken = true
	if f.trace == nil {
		f.trace = &trace.Trace{Protocol: f.sender.Name()}
		if f.recorded > 0 {
			f.trace.Packets = make([]trace.Packet, f.recorded)
			for i, c := range f.chunks {
				copy(f.trace.Packets[i*chunkLen:], c[:])
				chunkPool.Put(c)
			}
		}
		f.chunks = nil
	}
	if f.free != nil {
		packetPool.Put(f.free)
		f.free = nil
	}
	if f.Done() {
		// Nothing is outstanding and nothing more will be sent, so the
		// window (every slot nil) and the empty ack line are done with.
		w := f.window
		f.window = nil
		windowPool.Put(&w)
		f.acks.Release()
	}
	return f.trace
}

// RecordInto makes the flow record its packets by appending them to pkts,
// an empty slice the caller owns, rather than into chunks of its own; the
// trace Trace returns is then the one over that slice, with no copy. It
// is for a caller that only reduces the trace to numbers and then reuses
// the slice (see trace.Borrow), so the run allocates no trace of its own.
// Call it before Start.
func (f *Flow) RecordInto(pkts []trace.Packet) {
	f.trace = &trace.Trace{Protocol: f.sender.Name(), Packets: pkts[:0]}
}

// record appends pkt's record to the trace, lost until delivered.
func (f *Flow) record(pkt *outPacket) {
	rec := trace.Packet{Seq: pkt.seq, Size: pkt.size, SendTime: pkt.sendTime, Lost: true}
	if f.trace != nil {
		pkt.traceIdx = len(f.trace.Packets)
		f.trace.Packets = append(f.trace.Packets, rec)
		return
	}
	pkt.traceIdx = f.recorded
	if f.recorded%chunkLen == 0 {
		f.chunks = append(f.chunks, chunkPool.Get().(*recordChunk))
	}
	f.chunks[f.recorded/chunkLen][f.recorded%chunkLen] = rec
	f.recorded++
}

// recordOf returns the trace record of packet i.
func (f *Flow) recordOf(i int) *trace.Packet {
	if f.trace != nil {
		return &f.trace.Packets[i]
	}
	return &f.chunks[i/chunkLen][i%chunkLen]
}

// Done reports whether the flow has finished sending and has no packets
// outstanding.
func (f *Flow) Done() bool { return f.done && f.inflight == 0 }

// Inflight reports the number of packets currently outstanding.
func (f *Flow) Inflight() int { return f.inflight }

// SRTT reports the current smoothed round-trip estimate (0 before the
// first ack).
func (f *Flow) SRTT() sim.Time { return f.srtt }

// DeliveredBytes reports the cumulative bytes acknowledged so far.
func (f *Flow) DeliveredBytes() int64 { return f.delivered }

// Sent reports how many packets the flow has transmitted so far.
func (f *Flow) Sent() int64 { return f.nextSeq }

// Sender returns the congestion-control algorithm driving the flow.
func (f *Flow) Sender() Sender { return f.sender }

// sendingOver reports whether the sending window of the flow has ended.
func (f *Flow) sendingOver() bool {
	if f.cfg.Bytes > 0 && f.nextSeq*int64(f.cfg.PacketSize) >= f.cfg.Bytes {
		return true
	}
	return f.sched.Now() >= f.cfg.Start+f.cfg.Duration
}

// maybeComplete fires OnComplete once the flow has stopped sending and
// nothing is outstanding.
func (f *Flow) maybeComplete() {
	if f.cfg.OnComplete == nil || !f.done || f.inflight != 0 {
		return
	}
	cb := f.cfg.OnComplete
	f.cfg.OnComplete = nil
	cb(f.sched.Now())
}

// trySend transmits as many packets as the sender's window and pacing rate
// currently allow.
func (f *Flow) trySend() {
	if f.sendingOver() {
		f.done = true
		f.maybeComplete()
		return
	}
	now := f.sched.Now()
	rate := f.sender.PacingRate()
	win := f.sender.Window()

	if rate > 0 {
		// Paced mode: one packet per size/rate interval, window as a cap if
		// the sender provides one. At most one pacing timer is ever armed.
		if now < f.pacingNext {
			f.armPacing()
			return
		}
		if win > 0 && f.inflight >= win {
			// Window-limited; the next ack will re-trigger sending.
			return
		}
		if f.inflight < f.cfg.MaxInflight {
			f.transmit()
		}
		gap := sim.Time(float64(f.cfg.PacketSize) / rate * float64(sim.Second))
		if gap < 1 {
			gap = 1
		}
		f.pacingNext = now + gap
		f.armPacing()
		return
	}

	// Pure window mode: fill the window now; acks clock further sends.
	for f.inflight < win && f.inflight < f.cfg.MaxInflight && !f.sendingOver() {
		f.transmit()
	}
}

// armPacing schedules the next paced transmission opportunity, ensuring a
// single pending pacing event regardless of how many acks call trySend in
// between.
func (f *Flow) armPacing() {
	if !f.pacing.Armed() {
		f.pacing.Reset(f.pacingNext)
	}
}

// getPacket takes a packet object off the free list, or makes one.
func (f *Flow) getPacket() *outPacket {
	pkt := f.free
	if pkt == nil {
		pkt = &outPacket{flow: f}
		pkt.deliveredFn, pkt.droppedFn, pkt.ackedFn = pkt.delivered, pkt.dropped, pkt.acked
		return pkt
	}
	f.free = pkt.next
	pkt.flow = f
	return pkt
}

// slot is the window index of sequence number seq.
func (f *Flow) slot(seq int64) int { return int(seq & int64(len(f.window)-1)) }

// untrack takes pkt out of the window: it was acked or declared lost.
func (f *Flow) untrack(pkt *outPacket) {
	f.window[f.slot(pkt.seq)] = nil
	pkt.tracked = false
	f.inflight--
}

// recycle frees pkt once neither the flow nor the network holds it.
func (f *Flow) recycle(pkt *outPacket) {
	if pkt.tracked || pkt.inNet {
		return
	}
	pkt.flow = nil // a free packet keeps no flow reachable (see packetPool)
	pkt.next = f.free
	f.free = pkt
}

// growWindow doubles the window, re-placing the outstanding packets.
func (f *Flow) growWindow() {
	old := f.window
	f.window = make([]*outPacket, max(2*len(old), 64))
	for _, pkt := range old {
		if pkt != nil {
			f.window[f.slot(pkt.seq)] = pkt
		}
	}
}

// transmit sends one packet and records it.
func (f *Flow) transmit() {
	now := f.sched.Now()
	seq := f.nextSeq
	f.nextSeq++
	if seq-f.front >= int64(len(f.window)) {
		f.growWindow()
	}
	pkt := f.getPacket()
	pkt.seq, pkt.size, pkt.sendTime, pkt.delAtSnd = seq, f.cfg.PacketSize, now, f.delivered
	pkt.tracked, pkt.inNet = true, true
	f.window[f.slot(seq)] = pkt
	f.inflight++
	if !f.cfg.NoTrace {
		f.record(pkt)
	}
	f.armRTO()
	f.net.Send(pkt.size, pkt.deliveredFn, pkt.droppedFn)
}

// delivered is the Network's onDeliver: the packet reached the receiver;
// the ack returns after AckDelay.
func (pkt *outPacket) delivered(recv sim.Time) {
	f := pkt.flow
	if !f.cfg.NoTrace {
		rec := f.recordOf(pkt.traceIdx)
		rec.RecvTime, rec.Lost = recv, false
	}
	pkt.recv = recv
	f.acks.After(f.cfg.AckDelay, pkt.ackedFn)
}

// dropped is the Network's onDrop. The trace already marks the packet
// lost; the sender finds out via dupacks or RTO, not via this callback.
func (pkt *outPacket) dropped() {
	pkt.inNet = false
	pkt.flow.recycle(pkt)
}

// acked fires when the receiver's acknowledgment reaches the sender.
func (pkt *outPacket) acked() {
	f := pkt.flow
	pkt.inNet = false
	if pkt.tracked { // else already declared lost by RTO
		f.onAckArrived(pkt)
	}
	f.recycle(pkt)
}

// onAckArrived processes the receiver's acknowledgment for pkt.
func (f *Flow) onAckArrived(pkt *outPacket) {
	now := f.sched.Now()
	f.untrack(pkt)
	f.delivered += int64(pkt.size)
	if pkt.seq > f.highestAck {
		f.highestAck = pkt.seq
	}
	f.updateRTT(now - pkt.sendTime)

	ack := Ack{
		Seq: pkt.seq, Size: pkt.size,
		SendTime: pkt.sendTime, RecvTime: pkt.recv, AckTime: now,
		DeliveredAtSend: pkt.delAtSnd, Delivered: f.delivered,
	}
	f.sender.OnAck(now, ack)
	if f.cfg.OnAck != nil {
		f.cfg.OnAck(ack)
	}
	f.detectLosses(now)
	f.rearmRTO()
	f.trySend()
	f.maybeComplete()
}

// declareLost removes pkt from the window and reports the loss.
func (f *Flow) declareLost(now sim.Time, pkt *outPacket) {
	f.untrack(pkt)
	seq, sendTime := pkt.seq, pkt.sendTime
	f.recycle(pkt)
	f.sender.OnLoss(now, seq, sendTime)
	if f.cfg.OnLossDetected != nil {
		f.cfg.OnLossDetected(now, seq)
	}
}

// detectLosses declares packets lost once DupAckThreshold higher-sequence
// packets have been acked (SACK-style gap detection). The threshold only
// advances, so front does too.
func (f *Flow) detectLosses(now sim.Time) {
	thresh := f.highestAck - int64(f.cfg.DupAckThreshold)
	for ; f.front < f.nextSeq; f.front++ {
		pkt := f.window[f.slot(f.front)]
		if pkt == nil {
			continue // already acked or declared lost
		}
		if pkt.seq >= thresh {
			break
		}
		f.declareLost(now, pkt)
	}
}

// updateRTT maintains the smoothed RTT estimate (RFC 6298 coefficients).
func (f *Flow) updateRTT(rtt sim.Time) {
	if f.srtt == 0 {
		f.srtt = rtt
		f.rttvar = rtt / 2
		return
	}
	diff := f.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	f.rttvar = (3*f.rttvar + diff) / 4
	f.srtt = (7*f.srtt + rtt) / 8
}

// rto returns the current retransmission timeout.
func (f *Flow) rto() sim.Time {
	rto := f.srtt + 4*f.rttvar
	if rto < f.cfg.MinRTO {
		rto = f.cfg.MinRTO
	}
	return rto
}

func (f *Flow) armRTO() {
	if !f.rtoTimer.Armed() {
		f.rtoTimer.Reset(f.sched.Now() + f.rto())
	}
}

// rearmRTO restarts the timer after an ack, or stops it once nothing is
// outstanding, so a finished flow leaves no event behind.
func (f *Flow) rearmRTO() {
	if f.inflight > 0 {
		f.rtoTimer.Reset(f.sched.Now() + f.rto())
	} else {
		f.rtoTimer.Stop()
	}
}

// onRTO fires when no ack has arrived for a full RTO: every outstanding
// packet is declared lost, in sequence order (tail-loss recovery).
func (f *Flow) onRTO() {
	now := f.sched.Now()
	for ; f.front < f.nextSeq; f.front++ {
		if pkt := f.window[f.slot(f.front)]; pkt != nil {
			f.declareLost(now, pkt)
		}
	}
	f.trySend()
	f.maybeComplete()
}
