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

const (
	goldenEvents    = 20000
	goldenStreamNet = "954f163fc36ea90c3d83efb11481074bb20d4cef1cd2a8c9b70f33362081aad0"
	goldenStreamML  = "95f06658719b6dc5fcae1df3f67930ada5d4009b5caaca84d509643b26dc4b96"
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
	h := sha256.New()
	for _, b := range stream[:goldenEvents] {
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
