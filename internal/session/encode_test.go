package session

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// encodeCase is one event for the differential test, flattened so the
// fuzzer can mutate it: kind picks which members are present.
type encodeCase struct {
	kind                   uint8 // 0 packet, 1 loss, 2 summary, 3 state, 4 mutate, 5 bare, 6 everything
	seq, a, b, c, d, e     int64
	vt, x, y, z            float64
	state, reason, typeStr string
}

func (c encodeCase) event() Event {
	ev := Event{Seq: c.seq, Type: c.typeStr, VT: c.vt}
	packet := &PacketEvent{Seq: c.a, DelayMs: c.x, RTTMs: c.y, Cwnd: int(c.b), Inflight: int(c.c), Delivered: c.d}
	loss := &LossEvent{Seq: c.a, Cwnd: int(c.b)}
	summary := &SummaryEvent{Cwnd: int(c.a), Inflight: int(c.b), SRTTMs: c.x, ThroughputBps: c.y, Sent: c.c, Delivered: c.d, Lost: c.e}
	mutation := &AppliedMutation{
		BandwidthScale: c.x, BandwidthBps: c.y, LossRate: c.z, LossBurstS: float64(c.a),
		ReorderRate: float64(c.b) / 8, ReorderExtraMs: float64(c.c), ReorderBurstS: c.vt, Checkpoint: c.reason,
	}
	switch c.kind % 7 {
	case 0:
		ev.Packet = packet
	case 1:
		ev.Loss = loss
	case 2:
		ev.Summary = summary
	case 3:
		ev.State, ev.Reason = c.state, c.reason
	case 4:
		ev.Mutation = mutation
	case 6:
		ev.State, ev.Reason = c.state, c.reason
		ev.Packet, ev.Loss, ev.Summary, ev.Mutation = packet, loss, summary, mutation
	}
	return ev
}

// checkEncode requires appendEvent to agree with json.Marshal on ev: the
// same bytes, or both refusing.
func checkEncode(t testing.TB, ev Event) {
	t.Helper()
	want, err := json.Marshal(&ev)
	prefix := []byte("prefix|")
	got, ok := appendEvent(prefix, &ev)
	if ok != (err == nil) {
		t.Fatalf("appendEvent ok=%v but json.Marshal err=%v for %+v", ok, err, ev)
	}
	if !ok {
		if !bytes.Equal(got, prefix) {
			t.Fatalf("a refused event left %q in the buffer", got)
		}
		return
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("encodings differ\n  got %s\n want %s", got[len(prefix):], want)
	}
}

// encodeSeeds are the hand-picked cases: every event kind, floats on both
// sides of each of encoding/json's format switches (exponent form below
// 1e-6 and from 1e21, the e-09 → e-9 clean-up, which two-digit exponents
// must not get), signed zeros (omitted under omitempty), the values JSON
// cannot carry, integer extremes, and strings that need each kind of
// escaping.
var encodeSeeds = []encodeCase{
	{kind: 0, seq: 1, a: 17, b: 10, c: 9, d: 25500, vt: 0.25, x: 31.2, y: 51.2, typeStr: EventPacket},
	{kind: 1, seq: 2, a: 40, b: 7, vt: 1.5, typeStr: EventLoss},
	{kind: 2, seq: 3, a: 12, b: 11, c: 900, d: 1_350_000, e: 4, vt: 2, x: 48.25, y: 9.6e6, typeStr: EventSummary},
	{kind: 3, seq: 4, vt: 0, state: "running", reason: "created", typeStr: EventState},
	{kind: 4, seq: 5, a: 5, b: 2, c: 20, vt: 3, x: 0.8, y: 8e6, z: 0.05, reason: "b.json", typeStr: EventMutate},
	{kind: 5, seq: 0, typeStr: ""},
	{kind: 6, seq: math.MaxInt64, a: math.MinInt64, b: -1, c: math.MaxInt64, d: -7, e: 1, vt: 1e21, x: 1e-6, y: 1e-7, z: 123456789.125, state: "s", reason: "r", typeStr: "t"},
	{kind: 0, vt: 9.999999e-7, x: 1e-9, y: 1.5e-10, typeStr: EventPacket}, // e-7, e-9, e-10
	{kind: 2, vt: 1e-100, x: 9.99999999999999e20, y: 1.2345e300, typeStr: EventSummary},
	{kind: 0, vt: -1e-9, x: -1e21, y: -123.456, typeStr: EventPacket},
	{kind: 4, vt: math.Copysign(0, -1), x: math.Copysign(0, -1), y: 0, z: math.SmallestNonzeroFloat64, typeStr: EventMutate},
	{kind: 0, vt: math.Copysign(0, -1), x: 0, y: math.MaxFloat64, typeStr: EventPacket},
	{kind: 0, vt: math.NaN(), typeStr: EventPacket},
	{kind: 0, x: math.Inf(1), typeStr: EventPacket},
	{kind: 0, y: math.Inf(-1), typeStr: EventPacket},
	{kind: 2, y: math.NaN(), typeStr: EventSummary},
	{kind: 4, z: math.Inf(1), typeStr: EventMutate},
	{kind: 4, x: math.NaN(), typeStr: EventMutate}, // NaN != 0, so not omitted
	{kind: 3, state: `quote"back\slash`, reason: "<script>&amp;</script>", typeStr: "tab\there"},
	{kind: 3, state: "héllo wörld   ", reason: "bad utf8 \xff\xfe", typeStr: "nul\x00del\x7f"},
	{kind: 4, reason: "checkpoints/π.json", x: 1.25, typeStr: EventMutate},
}

func TestAppendEventMatchesJSON(t *testing.T) {
	for _, c := range encodeSeeds {
		checkEncode(t, c.event())
	}
	// Random events: floats drawn from raw bit patterns cover every
	// exponent, NaNs and infinities included.
	rng := rand.New(rand.NewSource(1))
	randFloat := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return math.Float64frombits(rng.Uint64())
		case 1:
			return float64(rng.Int63n(2_000_000)) / 1000 // millisecond-style values
		case 2:
			return math.Pow(10, float64(rng.Intn(60)-30)) * (rng.Float64() - 0.5)
		}
		return 0
	}
	strs := []string{"", "running", "idle ttl", "a\"b", "x<y", "日本", "\x01"}
	for i := 0; i < 20000; i++ {
		checkEncode(t, encodeCase{
			kind: uint8(rng.Intn(7)),
			seq:  rng.Int63(), a: rng.Int63() - rng.Int63(), b: int64(rng.Intn(1000)), c: int64(rng.Intn(1000)),
			d: rng.Int63(), e: int64(rng.Intn(50)),
			vt: randFloat(), x: randFloat(), y: randFloat(), z: randFloat(),
			state: strs[rng.Intn(len(strs))], reason: strs[rng.Intn(len(strs))], typeStr: strs[rng.Intn(len(strs))],
		}.event())
	}
}

// TestRecordRoundTrip: what a subscriber reads back from a published
// record is what json.Marshal would have made of the original event, for
// the flat kinds and for the encoded-as-they-happen kinds alike.
func TestRecordRoundTrip(t *testing.T) {
	for _, c := range encodeSeeds {
		ev := c.event()
		var rec record
		switch c.kind {
		case 0:
			p := ev.Packet
			rec = record{kind: recPacket, vt: ev.VT, n: [5]int64{p.Seq, int64(p.Cwnd), int64(p.Inflight), p.Delivered}, x: [2]float64{p.DelayMs, p.RTTMs}}
			ev.Type = EventPacket
		case 1:
			rec = record{kind: recLoss, vt: ev.VT, n: [5]int64{ev.Loss.Seq, int64(ev.Loss.Cwnd)}}
			ev.Type = EventLoss
		case 2:
			s := ev.Summary
			rec = record{kind: recSummary, vt: ev.VT, n: [5]int64{int64(s.Cwnd), int64(s.Inflight), s.Sent, s.Delivered, s.Lost}, x: [2]float64{s.SRTTMs, s.ThroughputBps}}
			ev.Type = EventSummary
		default:
			evCopy := ev
			raw, ok := encodeRaw(&evCopy)
			if !ok {
				if _, err := json.Marshal(&ev); err == nil {
					t.Fatalf("encodeRaw refused an encodable event %+v", ev)
				}
				continue
			}
			rec = record{kind: recEncoded, raw: raw}
		}
		ev.Seq = 77
		want, err := json.Marshal(&ev)
		if rec.kind != recEncoded && rec.encodable() != (err == nil) {
			t.Fatalf("encodable() = %v but json.Marshal err = %v for %+v", rec.encodable(), err, ev)
		}
		if err != nil {
			continue
		}
		if got := appendRecord(nil, 77, &rec); !bytes.Equal(got, want) {
			t.Fatalf("record encodes differently\n  got %s\n want %s", got, want)
		}
	}
}

func FuzzEventEncode(f *testing.F) {
	for _, c := range encodeSeeds {
		f.Add(c.kind, c.seq, c.a, c.b, c.c, c.d, c.e, c.vt, c.x, c.y, c.z, c.state, c.reason, c.typeStr)
	}
	f.Fuzz(func(t *testing.T, kind uint8, seq, a, b, c, d, e int64, vt, x, y, z float64, state, reason, typeStr string) {
		checkEncode(t, encodeCase{kind, seq, a, b, c, d, e, vt, x, y, z, state, reason, typeStr}.event())
	})
}
