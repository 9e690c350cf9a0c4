package session

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"ibox/internal/sim"
)

// Byte-identity goldens for the telemetry stream: SHA-256 over the first
// goldenEvents encoded events (newline-joined) of one fixed-seed session
// per artifact kind. Recorded on the commit *before* events became flat
// ring records encoded on read, when every event was json.Marshal'ed at
// publish time — so a match proves the hand-written encoder, the
// recycled event core and the lazy cross-traffic replay reproduce that
// stream byte for byte. goldenStreamML was re-recorded when LSTM weights
// became float32: the model's predicted delays moved, the encoder did
// not (goldenStreamNet, untouched, still pins it). amd64 only (see
// internal/core/golden_test.go).
//
// goldenStreamBBR (pacing and the retransmission timer) and
// goldenStreamMutated (path rebuilds, loss and reorder bursts mid-flight)
// were recorded on the commit before constant-delay events moved off the
// scheduler's heap into delay lines.

const (
	goldenEvents        = 20000
	goldenStreamNet     = "954f163fc36ea90c3d83efb11481074bb20d4cef1cd2a8c9b70f33362081aad0"
	goldenStreamML      = "95f06658719b6dc5fcae1df3f67930ada5d4009b5caaca84d509643b26dc4b96"
	goldenStreamBBR     = "a987126445664ce2603b33c31b31f742e75924796a6e2a6242587f714fc2b052"
	goldenStreamMutated = "75f566323b52309dde55f3d6adaff9034a22eea5d7878cdcb3f8b1ec4853567d"
)

// streamDigest runs an unpaced session to completion and hashes events
// 1..goldenEvents. The duration is chosen so the whole stream fits in the
// ring: the subscriber can never be lapped, however the goroutines are
// scheduled.
func streamDigest(t *testing.T, cfg Config) string {
	t.Helper()
	cfg.RingSize = 1 << 16
	stream := runToEnd(t, cfg)
	if len(stream) < goldenEvents || len(stream) > cfg.RingSize {
		t.Fatalf("stream has %d events, want between %d and %d", len(stream), goldenEvents, cfg.RingSize)
	}
	return digest(stream[:goldenEvents])
}

func digest(events [][]byte) string {
	h := sha256.New()
	for _, b := range events {
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func skipUnlessAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are recorded on amd64; %s may round differently", runtime.GOARCH)
	}
}

func TestGoldenStreamIBoxNet(t *testing.T) {
	skipUnlessAMD64(t)
	got := streamDigest(t, Config{
		ID: "golden-net", Kind: KindIBoxNet, Net: testNetParams(),
		Protocol: "cubic", Seed: 11, Duration: 30 * sim.Second,
	})
	if got != goldenStreamNet {
		t.Errorf("iboxnet cubic stream digest %s, want %s", got, goldenStreamNet)
	}
}

func TestGoldenStreamIBoxML(t *testing.T) {
	skipUnlessAMD64(t)
	got := streamDigest(t, Config{
		ID: "golden-ml", Kind: KindIBoxML, ML: trainedML(t),
		Protocol: "cbr", Seed: 13, Duration: 240 * sim.Second,
	})
	if got != goldenStreamML {
		t.Errorf("iboxml cbr stream digest %s, want %s", got, goldenStreamML)
	}
}

func TestGoldenStreamIBoxNetBBR(t *testing.T) {
	skipUnlessAMD64(t)
	got := streamDigest(t, Config{
		ID: "golden-bbr", Kind: KindIBoxNet, Net: testNetParams(),
		Protocol: "bbr", Seed: 17, Duration: 30 * sim.Second,
	})
	if got != goldenStreamBBR {
		t.Errorf("iboxnet bbr stream digest %s, want %s", got, goldenStreamBBR)
	}
}

// TestGoldenStreamMutated steps a cubic session from the test goroutine,
// tick by tick as its run loop would, and applies mutations at fixed
// ticks: two path rebuilds (each leaves the old path's packets in flight
// beside the new path's), a loss burst and a reorder burst that overlaps
// the second rebuild. The whole stream is hashed.
func TestGoldenStreamMutated(t *testing.T) {
	skipUnlessAMD64(t)
	loss, reorder := 0.05, 0.3
	mutations := map[int]Mutation{
		40:  {BandwidthScale: 0.5},
		80:  {LossRate: &loss, LossBurstS: 1},
		120: {ReorderRate: &reorder, ReorderExtraMs: 15, ReorderBurstS: 2},
		140: {BandwidthScale: 3},
	}
	s, err := build(Config{
		ID: "golden-mutated", Kind: KindIBoxNet, Net: testNetParams(),
		Protocol: "cubic", Seed: 19, Duration: 20 * sim.Second, RingSize: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.emitState(Running, "created")
	for tick := 0; ; tick++ {
		if mu, ok := mutations[tick]; ok {
			if err := s.mutate(mu); err != nil {
				t.Fatalf("tick %d: %v", tick, err)
			}
		}
		target := min(s.sched.Now()+s.cfg.Tick, s.end)
		s.step(target)
		s.publishPending()
		if target >= s.end {
			s.finish(Closed, "complete")
			break
		}
	}
	s.ring.closeRing()
	stream := collect(t, s)
	if len(stream) < 5000 {
		t.Fatalf("stream has only %d events", len(stream))
	}
	if got := digest(stream); got != goldenStreamMutated {
		t.Errorf("mutated cubic stream digest %s, want %s (%d events)", got, goldenStreamMutated, len(stream))
	}
}
