package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"ibox/internal/sim"
)

// Byte-identity goldens for the bottleneck variants that the core-level
// goldens (internal/core/golden_test.go) do not reach: token-bucket
// shaping, RED, the PF cell and a multi-hop chain. Recorded on the commit
// before packets and link service became recycled objects; amd64 only.
// goldenJitter and goldenReorder were recorded on the commit before the
// propagation delays moved off the scheduler's heap into delay lines.

const (
	goldenTokenBucket = "4b701b032a93fc1047146dd209ff3fd405ec55ec0f9b610a202ebdf2a9cb6ee7"
	goldenRED         = "9434cd7922117aa0d8a142347816357048c8e97a36355a1e129ff942c2ac707b"
	goldenPFCell      = "909a3d52254d13cc6c7ac4540ad1eb9a889866fb5939a601dafc63d173eb77a9"
	goldenChain       = "dd7719282425bc0ee6044f20a1e6cc9c34879503c93d8c111723b75eddb3567e"
	goldenJitter      = "19310a787d4b1735f42dabba781509932edcfdf7b67aef2bb500637dbdbe58f6"
	goldenReorder     = "9d6e6ed247df7a1784a278e6a028a4f50da28cdc8140d702d13b329d1399f6ff"
)

// sender is the minimal network the goldens drive: Path.Port and
// Chain.Port both satisfy it.
type sender interface {
	Send(size int, onDeliver func(recv sim.Time), onDrop func())
}

// probeDigest offers a bursty open-loop load (bursts of 1–16 packets of
// varying size every 5 ms, ≈1.15× the nominal rate) for 4 s and hashes every
// packet's fate in callback order.
func probeDigest(sched *sim.Scheduler, net sender) (digest string, delivered, dropped int) {
	h := sha256.New()
	rng := sim.NewRand(21, 9)
	record := func(id int64, kind uint64, at sim.Time) {
		var b [24]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(id))
		binary.LittleEndian.PutUint64(b[8:], kind)
		binary.LittleEndian.PutUint64(b[16:], uint64(at))
		h.Write(b[:])
	}
	var id int64
	var burst func()
	burst = func() {
		for n := 1 + rng.Intn(16); n > 0; n-- {
			pid := id
			id++
			net.Send(200+rng.Intn(1301), func(recv sim.Time) {
				delivered++
				record(pid, 1, recv)
			}, func() {
				dropped++
				record(pid, 2, sched.Now())
			})
		}
		if sched.Now() < 4*sim.Second {
			sched.After(5*sim.Millisecond, burst)
		}
	}
	sched.At(0, burst)
	sched.RunUntil(6 * sim.Second)
	return hex.EncodeToString(h.Sum(nil)), delivered, dropped
}

func TestGoldenBottleneckVariants(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are recorded on amd64; %s may round differently", runtime.GOARCH)
	}
	base := Config{Rate: 1_250_000, BufferBytes: 60_000, PropDelay: 20 * sim.Millisecond, Seed: 4}
	tb := base
	tb.TokenBucket = &TokenBucketModel{FillRate: 600_000, BurstBytes: 20_000}
	red := base
	red.RED = &REDModel{MinBytes: 10_000, MaxBytes: 40_000}
	pf := base
	pf.PFCell = &PFCellModel{PeakRate: 4_000_000, Background: 3}
	jitter := base
	jitter.Jitter = 3 * sim.Millisecond
	jitter.LossProb = 0.01
	reorder := base
	reorder.Reorder = &ReorderModel{Prob: 0.1, ExtraMin: 2 * sim.Millisecond, ExtraMax: 30 * sim.Millisecond}

	for _, tc := range []struct {
		name, want string
		build      func(*sim.Scheduler) sender
	}{
		{"token-bucket", goldenTokenBucket, func(s *sim.Scheduler) sender {
			p := New(s, tb)
			p.AddCrossTraffic(Poisson{MeanRate: 100_000, Seed: 3})
			return p.Port("main")
		}},
		{"red", goldenRED, func(s *sim.Scheduler) sender { return New(s, red).Port("main") }},
		{"pf-cell", goldenPFCell, func(s *sim.Scheduler) sender { return New(s, pf).Port("main") }},
		{"jitter", goldenJitter, func(s *sim.Scheduler) sender { return New(s, jitter).Port("main") }},
		{"reorder", goldenReorder, func(s *sim.Scheduler) sender { return New(s, reorder).Port("main") }},
		{"chain", goldenChain, func(s *sim.Scheduler) sender {
			c := NewChain(s, []HopConfig{
				{Rate: 2_000_000, BufferBytes: 40_000, PropDelay: 5 * sim.Millisecond},
				{Rate: 1_000_000, BufferBytes: 50_000, PropDelay: 10 * sim.Millisecond},
				{Rate: 3_000_000, BufferBytes: 30_000, PropDelay: 2 * sim.Millisecond},
			})
			c.AddCrossTraffic(1, ConstantBitRate{Rate: 200_000, From: sim.Second, To: 3 * sim.Second})
			return c.Port("main")
		}},
	} {
		sched := sim.NewScheduler()
		got, delivered, dropped := probeDigest(sched, tc.build(sched))
		if delivered < 1000 || dropped == 0 {
			t.Errorf("%s: probe is not loading the path: %d delivered, %d dropped", tc.name, delivered, dropped)
		}
		if got != tc.want {
			t.Errorf("%s: digest %s, want %s (%d delivered, %d dropped)", tc.name, got, tc.want, delivered, dropped)
		}
	}
}
