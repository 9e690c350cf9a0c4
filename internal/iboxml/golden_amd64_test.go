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
		"1e614920ad1bf232d85aa964cd60e273984a978a82b346e49ee565ff98fe3678",
		"c71f6e3e5562239ac50d4220c3d05e57ab21edf0ed7045db595bd453cdc6bd0f",
		"4982035d61c14fd391e3786aaa9c0e68864f894a75b5b309abce3e3c800bc8c4",
		"52563b6fa2841c468b7feb0ffbf260c56b6928b4381770f040e35357f8de0fce"},
	{"12x1+ct", 12, 1, true,
		"d1d1ae3dca6114886eebecec74de306696f1295e075dbe9b1a3062cde669354e",
		"64abf1a888e8a3bc6bc012843042440bde6b4f95cd837049d9b0edabf9f3baa9",
		"08a31628c2d0566011b3d1880f57c64e2abd395455a66781f78ca46e072f050a",
		"99af036ec1814b3d27cda42170a4a04b26b2163c606419dcd760487fb907dcec"},
	{"32x3", 32, 3, false,
		"685f0470a36597ad865d6492e04de43973191c7146fbe5348994b35d00721156",
		"1931f8c31d924d7fae21c0f6f9a74c93529283c944360802bcac40b777391105",
		"aa253487140fbde4279985d89fd1833074e6db35e606ca562f336c7a49247aa8",
		"195e7b3498df358391feb6f83a12916520b531783aa4bb88c4a06d445f82c8c2"},
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
