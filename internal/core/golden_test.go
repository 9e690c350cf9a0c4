package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"ibox/internal/iboxnet"
	"ibox/internal/netsim"
	"ibox/internal/pantheon"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// Byte-identity goldens for the packet-level engine (sim + cc + netsim +
// iboxnet). The digests were recorded on the commit *before* the event
// core was made allocation-free (recycled scheduler nodes, recycled packet
// objects, lazy cross-traffic replay) and must never change as a side
// effect of a performance change: every trace below is a pure function of
// its seeds. Floating-point results are only pinned on amd64 (other
// architectures may fuse multiply-adds).

const (
	goldenRunCubic = "43d2855f2d5175ae3e934a30b3ff6d67250f4e219180beedb8b322d06e923c4e"
	goldenRunVegas = "5d8ab4e1b74210c4182a20b3aef36e9c248ba502dfbdd35d970655b348a38382"
	goldenRunBBR   = "0e4a3b5efaed881bdd8fe218a62099f5cc6bfc90e757b5c4941021ff42a6abad"
	goldenPantheon = "6db7054974ba8d19de8b2b1760f182518ad4319800444fed0f1a5a4a922dc7e7"
)

// traceDigest hashes every field of every packet record.
func traceDigest(tr *trace.Trace) string {
	h := sha256.New()
	var b [8 * 5]byte
	for _, p := range tr.Packets {
		binary.LittleEndian.PutUint64(b[0:], uint64(p.Seq))
		binary.LittleEndian.PutUint64(b[8:], uint64(p.Size))
		binary.LittleEndian.PutUint64(b[16:], uint64(p.SendTime))
		binary.LittleEndian.PutUint64(b[24:], uint64(p.RecvTime))
		lost := uint64(0)
		if p.Lost {
			lost = 1
		}
		binary.LittleEndian.PutUint64(b[32:], lost)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func skipUnlessAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are recorded on amd64; %s may round differently", runtime.GOARCH)
	}
}

// TestGoldenModelRun pins core.Model.Run for three senders on one fitted
// profile (full iBoxNet: bandwidth, delay, buffer and replayed cross
// traffic).
func TestGoldenModelRun(t *testing.T) {
	skipUnlessAMD64(t)
	inst := pantheon.IndiaCellular().Sample(17, 0)
	gt, err := inst.Run("cubic", 10*sim.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(gt, iboxnet.Full)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ proto, want string }{
		{"cubic", goldenRunCubic},
		{"vegas", goldenRunVegas},
		{"bbr", goldenRunBBR},
	} {
		tr, err := m.Run(tc.proto, 10*sim.Second, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Packets) < 1000 {
			t.Fatalf("%s: only %d packets", tc.proto, len(tr.Packets))
		}
		if got := traceDigest(tr); got != tc.want {
			t.Errorf("%s: trace digest %s, want %s (%d packets)", tc.proto, got, tc.want, len(tr.Packets))
		}
	}
}

// TestGoldenPantheonTrace pins one ground-truth run with every stochastic
// netsim feature on the packet path enabled: cellular rate walk, multipath
// reordering, jitter, random loss, and all four cross-traffic sources.
func TestGoldenPantheonTrace(t *testing.T) {
	skipUnlessAMD64(t)
	inst := pantheon.Instance{
		ID: "golden",
		Net: netsim.Config{
			Rate:        1_500_000,
			BufferBytes: 90_000,
			PropDelay:   30 * sim.Millisecond,
			LossProb:    0.002,
			Cellular: &netsim.CellularModel{
				Interval: 100 * sim.Millisecond, Sigma: 0.15, MinShare: 0.4, MaxShare: 1.3,
			},
			Reorder: &netsim.ReorderModel{Prob: 0.03, ExtraMin: 0, ExtraMax: 4 * sim.Millisecond},
			Jitter:  2 * sim.Millisecond,
			Seed:    99,
		},
		CrossTraffic: []netsim.CrossTraffic{
			netsim.Poisson{MeanRate: 200_000, Seed: 5},
			netsim.OnOff{Rate: 400_000, OnDur: sim.Second, OffDur: 2 * sim.Second, From: sim.Second},
			netsim.ConstantBitRate{Rate: 50_000, PacketSize: 500, From: 2 * sim.Second, To: 6 * sim.Second},
			netsim.Replay{
				Start: 500 * sim.Millisecond, Step: 100 * sim.Millisecond,
				Bytes: []float64{0, 3000, 20, 4600, 15000, 39, 40, 1500, 0, 0, 7777, 30000, 100},
			},
		},
	}
	tr, err := inst.Run("cubic", 8*sim.Second, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Packets) < 1000 || tr.ReorderingRate() == 0 || tr.LossRate() == 0 {
		t.Fatalf("golden instance is not exercising the path: %d packets, reorder %.4f, loss %.4f",
			len(tr.Packets), tr.ReorderingRate(), tr.LossRate())
	}
	if got := traceDigest(tr); got != goldenPantheon {
		t.Errorf("trace digest %s, want %s (%d packets)", got, goldenPantheon, len(tr.Packets))
	}
}
