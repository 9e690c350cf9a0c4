package session

import (
	"math"
	"strconv"

	"ibox/internal/wire"
)

// The telemetry stream. A session emits a totally ordered sequence of
// events. The run goroutine publishes them as flat value records (see
// record) and a subscriber's read encodes them to JSON, so a session
// nobody watches never formats a byte. The encoding is a pure function
// of the record and its sequence number — appendEvent, whose output is
// byte for byte encoding/json's — so the stream a client receives is
// byte-identical across runs with the same (checkpoint, sender, seed),
// whether the session stepped on the shared pool or inline, and
// regardless of how many subscribers watched or when they attached
// (modulo the ring buffer's retention window).
//
// Event content depends only on *virtual* time: the simulated clock,
// packet sequence numbers, and sender state. Wall-clock pacing decides
// when events are published, never what they say.

// Event types.
const (
	// EventState marks a lifecycle transition; State carries the new
	// state and Reason why ("client", "complete", "idle ttl", "drain").
	EventState = "state"
	// EventPacket is per-packet telemetry for one acknowledged packet.
	EventPacket = "packet"
	// EventLoss reports one packet the transport declared lost.
	EventLoss = "loss"
	// EventSummary is the per-RTT-scale rollup (cwnd, inflight,
	// throughput) emitted every Config.Summary of virtual time.
	EventSummary = "summary"
	// EventMutate records a path mutation the session applied.
	EventMutate = "mutate"
)

// Event is one telemetry record. Seq is the session-wide sequence
// number (also the SSE event id); VT is the virtual time in seconds at
// which the event happened inside the emulation.
type Event struct {
	Seq  int64   `json:"seq"`
	Type string  `json:"type"`
	VT   float64 `json:"vt"`

	State  string `json:"state,omitempty"`
	Reason string `json:"reason,omitempty"`

	Packet   *PacketEvent     `json:"packet,omitempty"`
	Loss     *LossEvent       `json:"loss,omitempty"`
	Summary  *SummaryEvent    `json:"summary,omitempty"`
	Mutation *AppliedMutation `json:"mutation,omitempty"`
}

// PacketEvent is the per-packet telemetry tap: one acknowledged packet
// as the sender saw it.
type PacketEvent struct {
	Seq       int64   `json:"pkt"`
	DelayMs   float64 `json:"delay_ms"` // one-way delay
	RTTMs     float64 `json:"rtt_ms"`
	Cwnd      int     `json:"cwnd"`     // sender window, packets (0 = rate-based)
	Inflight  int     `json:"inflight"` // outstanding packets after this ack
	Delivered int64   `json:"delivered_bytes"`
}

// LossEvent reports one packet declared lost (dupack gap or RTO).
type LossEvent struct {
	Seq  int64 `json:"pkt"`
	Cwnd int   `json:"cwnd"` // sender window after the loss reaction
}

// SummaryEvent is the rolled-up view over the last summary interval.
type SummaryEvent struct {
	Cwnd          int     `json:"cwnd"`
	Inflight      int     `json:"inflight"`
	SRTTMs        float64 `json:"srtt_ms"`
	ThroughputBps float64 `json:"throughput_bps"` // delivered bits/s over the interval
	Sent          int64   `json:"sent"`           // cumulative packets transmitted
	Delivered     int64   `json:"delivered_bytes"`
	Lost          int64   `json:"lost"` // cumulative packets declared lost
}

// AppliedMutation records what a path mutation did, in the event
// stream and in session Info.
type AppliedMutation struct {
	BandwidthScale float64 `json:"bandwidth_scale,omitempty"`
	BandwidthBps   float64 `json:"bandwidth_bps,omitempty"` // resulting rate (iboxnet)
	LossRate       float64 `json:"loss_rate,omitempty"`
	LossBurstS     float64 `json:"loss_burst_s,omitempty"`
	ReorderRate    float64 `json:"reorder_rate,omitempty"`
	ReorderExtraMs float64 `json:"reorder_extra_ms,omitempty"`
	ReorderBurstS  float64 `json:"reorder_burst_s,omitempty"`
	Checkpoint     string  `json:"checkpoint,omitempty"` // swapped-in model
}

// recordKind says which event a record holds.
type recordKind uint8

const (
	recPacket recordKind = iota + 1
	recLoss
	recSummary
	// recEncoded is a state or mutate event. They are rare and carry
	// strings, so they are encoded when they happen and the record keeps
	// the bytes (everything after the sequence number, which is only
	// assigned at publish).
	recEncoded
)

// record is one published event in the ring: a compact union of the
// per-packet event kinds. By kind, n and x hold
//
//	packet:  n = pkt, cwnd, inflight, delivered_bytes    x = delay_ms, rtt_ms
//	loss:    n = pkt, cwnd
//	summary: n = cwnd, inflight, sent, delivered_bytes, lost
//	         x = srtt_ms, throughput_bps
type record struct {
	kind recordKind
	vt   float64
	n    [5]int64
	x    [2]float64
	raw  []byte // recEncoded only
}

// encodable reports whether appendRecord can encode r: JSON has no
// NaN or infinity (an encoded record was checked when it was encoded).
func (r *record) encodable() bool {
	return isFinite(r.vt) && isFinite(r.x[0]) && isFinite(r.x[1])
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// seqPrefix opens every encoded event; the sequence number follows.
const seqPrefix = `{"seq":`

// encodeRaw encodes a state or mutate event for a recEncoded record's raw
// bytes, or reports false if the event cannot be encoded.
func encodeRaw(ev *Event) ([]byte, bool) {
	ev.Seq = 0
	b, ok := appendEvent(nil, ev)
	if !ok {
		return nil, false
	}
	return b[len(seqPrefix)+1:], true
}

// appendRecord appends the JSON encoding of r as event number seq.
func appendRecord(dst []byte, seq int64, r *record) []byte {
	if r.kind == recEncoded {
		dst = append(dst, seqPrefix...)
		dst = strconv.AppendInt(dst, seq, 10)
		return append(dst, r.raw...)
	}
	ev := Event{Seq: seq, VT: r.vt}
	var (
		pk PacketEvent
		ls LossEvent
		sm SummaryEvent
	)
	switch r.kind {
	case recPacket:
		pk = PacketEvent{
			Seq: r.n[0], DelayMs: r.x[0], RTTMs: r.x[1],
			Cwnd: int(r.n[1]), Inflight: int(r.n[2]), Delivered: r.n[3],
		}
		ev.Type, ev.Packet = EventPacket, &pk
	case recLoss:
		ls = LossEvent{Seq: r.n[0], Cwnd: int(r.n[1])}
		ev.Type, ev.Loss = EventLoss, &ls
	case recSummary:
		sm = SummaryEvent{
			Cwnd: int(r.n[0]), Inflight: int(r.n[1]), SRTTMs: r.x[0], ThroughputBps: r.x[1],
			Sent: r.n[2], Delivered: r.n[3], Lost: r.n[4],
		}
		ev.Type, ev.Summary = EventSummary, &sm
	}
	dst, _ = appendEvent(dst, &ev) // records are checked encodable before they are published
	return dst
}

// appendEvent appends ev's JSON encoding to dst. The output is byte for
// byte what json.Marshal(ev) produces (TestAppendEventMatchesJSON,
// FuzzEventEncode), and like json.Marshal it refuses — returning dst
// unchanged and false — an event holding a NaN or an infinity.
func appendEvent(dst []byte, ev *Event) ([]byte, bool) {
	e := wire.Encoder{Buf: dst}
	e.Raw(seqPrefix)
	e.Int(ev.Seq)
	e.Raw(`,"type":`)
	e.Str(ev.Type)
	e.Raw(`,"vt":`)
	e.Float(ev.VT)
	if ev.State != "" {
		e.Raw(`,"state":`)
		e.Str(ev.State)
	}
	if ev.Reason != "" {
		e.Raw(`,"reason":`)
		e.Str(ev.Reason)
	}
	if p := ev.Packet; p != nil {
		e.Raw(`,"packet":{"pkt":`)
		e.Int(p.Seq)
		e.Raw(`,"delay_ms":`)
		e.Float(p.DelayMs)
		e.Raw(`,"rtt_ms":`)
		e.Float(p.RTTMs)
		e.Raw(`,"cwnd":`)
		e.Int(int64(p.Cwnd))
		e.Raw(`,"inflight":`)
		e.Int(int64(p.Inflight))
		e.Raw(`,"delivered_bytes":`)
		e.Int(p.Delivered)
		e.Raw(`}`)
	}
	if l := ev.Loss; l != nil {
		e.Raw(`,"loss":{"pkt":`)
		e.Int(l.Seq)
		e.Raw(`,"cwnd":`)
		e.Int(int64(l.Cwnd))
		e.Raw(`}`)
	}
	if s := ev.Summary; s != nil {
		e.Raw(`,"summary":{"cwnd":`)
		e.Int(int64(s.Cwnd))
		e.Raw(`,"inflight":`)
		e.Int(int64(s.Inflight))
		e.Raw(`,"srtt_ms":`)
		e.Float(s.SRTTMs)
		e.Raw(`,"throughput_bps":`)
		e.Float(s.ThroughputBps)
		e.Raw(`,"sent":`)
		e.Int(s.Sent)
		e.Raw(`,"delivered_bytes":`)
		e.Int(s.Delivered)
		e.Raw(`,"lost":`)
		e.Int(s.Lost)
		e.Raw(`}`)
	}
	if m := ev.Mutation; m != nil {
		e.Raw(`,"mutation":{`)
		open := len(e.Buf)
		e.OptFloat(open, `"bandwidth_scale":`, m.BandwidthScale)
		e.OptFloat(open, `"bandwidth_bps":`, m.BandwidthBps)
		e.OptFloat(open, `"loss_rate":`, m.LossRate)
		e.OptFloat(open, `"loss_burst_s":`, m.LossBurstS)
		e.OptFloat(open, `"reorder_rate":`, m.ReorderRate)
		e.OptFloat(open, `"reorder_extra_ms":`, m.ReorderExtraMs)
		e.OptFloat(open, `"reorder_burst_s":`, m.ReorderBurstS)
		if m.Checkpoint != "" {
			e.Sep(open)
			e.Raw(`"checkpoint":`)
			e.Str(m.Checkpoint)
		}
		e.Raw(`}`)
	}
	e.Raw(`}`)
	if e.Failed {
		return dst, false
	}
	return e.Buf, true
}
