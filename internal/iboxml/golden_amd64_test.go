//go:build amd64

package iboxml

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"strings"
	"testing"

	"ibox/internal/sim"
	"ibox/internal/trace"
)

// inferenceBitsCases are TestInferenceBitsGolden's models and the
// SHA-256 of each inference output on a held-out trace: PredictWindows
// and PredictWindowsOpenLoop as the Float64bits of mu then sigma, and
// SimulateTrace and SimulateTraceHierarchical as their wire JSON.
var inferenceBitsCases = []struct {
	name                    string
	hidden, layers          int
	ct                      bool // UseCrossTraffic, trained and replayed with a CT series
	closed, open, sim, hier string
}{
	{"16x2", 16, 2, false,
		"f861b9ec8563ae49db449c38f0b1df392ffd08b7aa3caa93b522fcc1b8289568",
		"bac5d790b030d06a36de8082b00f67539fd616eaa26041b43c48b9b569d231b3",
		"847e1138ef3b1ff5b40926db92ad18ecfb430b975421e7e2e83d441c81da9226",
		"8fee5c0177bb0f7b292d7d5eaae89f49bda46b18f1390e5213b00c3181620f14"},
	{"12x1+ct", 12, 1, true,
		"766e5a9344a3f260f2124f09f0e5dd9d398a5e7da41cefb2beb87e7b5f4f7e63",
		"7e042fe90267ce4a4d87fb3f22a7bd186df397422b44139c51bf1140d93fb992",
		"0f40219ae4c5fc36d651250b4fdacc7d321fd89da5036da0d15bb4323cb14939",
		"9c1134495aae1b34bd3dc991c02702a6bf71a38109e5d12946037534e40642d7"},
	{"32x3", 32, 3, false,
		"ce17dda966db1f46ecfa206a0493de8f073a19e04d7399f4e5eca609011f9b96",
		"13d9d57707be62a9e9555824f0695ea9e25ddaf9c6532d53191dbde4a12f76b8",
		"cc51e199fdeb9140d735972f36b239bc6da47cdf6b82f78b49c7a575f807a21d",
		"d766a30b228d7de881f3c0b4ac1fd55b2afdf3ebd04c079ed2ecc59d2c649016"},
}

// ctSeries is a cross-traffic estimate that ramps over the trace.
func ctSeries(n int) *trace.Series {
	ct := trace.NewSeries(0, 100*sim.Millisecond, n)
	for i := range ct.Vals {
		ct.Vals[i] = float64(37 * (i % 23))
	}
	return ct
}

// floatsHash returns the SHA-256 of the Float64bits of each slice in turn.
func floatsHash(xss ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, xs := range xss {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// traceHash returns the SHA-256 of a trace's wire JSON.
func traceHash(t *testing.T, tr *trace.Trace) string {
	s := sha256.Sum256(encodeTrace(t, tr))
	return hex.EncodeToString(s[:])
}

// cpuHasAVX2FMA reports whether /proc/cpuinfo lists avx2 and fma: the
// features that send math.Exp down its FMA instruction sequence on amd64.
func cpuHasAVX2FMA() bool {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "flags") {
			f := strings.Fields(line)
			has := func(s string) bool {
				for _, v := range f {
					if v == s {
						return true
					}
				}
				return false
			}
			return has("avx2") && has("fma")
		}
	}
	return false
}

// TestInferenceBitsGolden pins every window-level inference output to
// the bit, on a multi-layer model, a cross-traffic model replayed with
// and without its CT series, and a deeper one. Any change to
// standardization, the kernel step, the head, de-standardization, the
// mu clamp or the closed-loop feedback shows here. Recorded on amd64
// with AVX2+FMA, because math.Exp, which the gates and the head run on,
// takes an FMA instruction sequence only there.
func TestInferenceBitsGolden(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("recorded where math.Exp takes its FMA path; this CPU lacks AVX2+FMA or /proc/cpuinfo")
	}
	for _, c := range inferenceBitsCases {
		t.Run(c.name, func(t *testing.T) {
			samples := trainSamples(2, 3*sim.Second)
			var ct *trace.Series
			if c.ct {
				for i := range samples {
					samples[i].CT = ctSeries(30)
				}
				ct = ctSeries(40)
			}
			m, err := Train(samples, Config{Hidden: c.hidden, Layers: c.layers, Epochs: 2, Seed: 13, UseCrossTraffic: c.ct})
			if err != nil {
				t.Fatal(err)
			}
			in := synthTrace(91, 4*sim.Second)
			in.Packets[17].Lost = true
			mu, sigma := m.PredictWindows(in, ct)
			closed := floatsHash(mu, sigma)
			if c.ct {
				// Also the cross-traffic column widened with zeros.
				nmu, nsigma := m.PredictWindows(in, nil)
				closed = floatsHash(mu, sigma, nmu, nsigma)
			}
			omu, osigma := m.PredictWindowsOpenLoop(in, ct)
			got := []string{
				closed,
				floatsHash(omu, osigma),
				traceHash(t, m.SimulateTrace(in, ct, 5)),
				traceHash(t, m.SimulateTraceHierarchical(in, 5)),
			}
			want := []string{c.closed, c.open, c.sim, c.hier}
			for i, what := range []string{"PredictWindows", "PredictWindowsOpenLoop", "SimulateTrace", "SimulateTraceHierarchical"} {
				if got[i] != want[i] {
					t.Errorf("%s: sha256 %s, want %s", what, got[i], want[i])
				}
			}
		})
	}
}
