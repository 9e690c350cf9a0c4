package trace

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ibox/internal/sim"
)

// mkTrace builds a simple delivered-in-order trace: packet i of size sz sent
// at i*gap with constant delay.
func mkTrace(n int, sz int, gap, delay sim.Time) *Trace {
	t := &Trace{Protocol: "test", PathID: "p0"}
	for i := 0; i < n; i++ {
		send := sim.Time(i) * gap
		t.Packets = append(t.Packets, Packet{
			Seq: int64(i), Size: sz, SendTime: send, RecvTime: send + delay,
		})
	}
	return t
}

func TestValidate(t *testing.T) {
	tr := mkTrace(10, 1500, sim.Millisecond, 20*sim.Millisecond)
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := mkTrace(3, 1500, sim.Millisecond, sim.Millisecond)
	bad.Packets[2].Seq = bad.Packets[1].Seq
	if bad.Validate() == nil {
		t.Error("duplicate seq accepted")
	}
	bad2 := mkTrace(3, 1500, sim.Millisecond, sim.Millisecond)
	bad2.Packets[1].RecvTime = bad2.Packets[1].SendTime - 1
	if bad2.Validate() == nil {
		t.Error("recv before send accepted")
	}
	bad3 := mkTrace(2, 1500, sim.Millisecond, sim.Millisecond)
	bad3.Packets[0].Size = 0
	if bad3.Validate() == nil {
		t.Error("zero size accepted")
	}
}

func TestDurationAndThroughput(t *testing.T) {
	// 100 packets of 1250 bytes sent 10ms apart, delay 20ms.
	tr := mkTrace(100, 1250, 10*sim.Millisecond, 20*sim.Millisecond)
	wantDur := 99*10*sim.Millisecond + 20*sim.Millisecond
	if tr.Duration() != wantDur {
		t.Errorf("Duration = %v, want %v", tr.Duration(), wantDur)
	}
	// 125000 bytes over 1.01s ≈ 990099 bps.
	tput := tr.Throughput()
	want := float64(100*1250*8) / wantDur.Seconds()
	if math.Abs(tput-want) > 1 {
		t.Errorf("Throughput = %v, want %v", tput, want)
	}
}

func TestLossRate(t *testing.T) {
	tr := mkTrace(10, 1500, sim.Millisecond, sim.Millisecond)
	tr.Packets[3].Lost = true
	tr.Packets[7].Lost = true
	if got := tr.LossRate(); got != 0.2 {
		t.Errorf("LossRate = %v, want 0.2", got)
	}
	empty := &Trace{}
	if empty.LossRate() != 0 {
		t.Error("empty trace loss rate should be 0")
	}
}

func TestDelayPercentile(t *testing.T) {
	tr := &Trace{}
	// Delays 1..100 ms.
	for i := 0; i < 100; i++ {
		tr.Packets = append(tr.Packets, Packet{
			Seq: int64(i), Size: 100,
			SendTime: sim.Time(i) * sim.Millisecond,
			RecvTime: sim.Time(i)*sim.Millisecond + sim.Time(i+1)*sim.Millisecond,
		})
	}
	if p50 := tr.DelayPercentile(50); math.Abs(p50-50.5) > 1e-9 {
		t.Errorf("p50 = %v, want 50.5", p50)
	}
	if p95 := tr.DelayPercentile(95); math.Abs(p95-95.05) > 0.2 {
		t.Errorf("p95 = %v, want ≈95", p95)
	}
	if p0 := tr.DelayPercentile(0); p0 != 1 {
		t.Errorf("p0 = %v, want 1", p0)
	}
	if p100 := tr.DelayPercentile(100); p100 != 100 {
		t.Errorf("p100 = %v, want 100", p100)
	}
	empty := &Trace{}
	if !math.IsNaN(empty.DelayPercentile(50)) {
		t.Error("empty trace percentile should be NaN")
	}
}

// TestDelayPercentileMatchesSort: selecting the two order statistics
// percentileSorted reads gives the same bits as sorting every delay, on
// delays with many ties and on sorted, reversed and shuffled orders.
func TestDelayPercentileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 1000} {
		for trial := 0; trial < 60; trial++ {
			levels := 1 + rng.Intn(n) // few distinct delays: many ties
			tr := &Trace{}
			for i := 0; i < n; i++ {
				send := sim.Time(i) * sim.Millisecond
				delay := sim.Time(rng.Intn(levels)) * 137 * sim.Microsecond
				switch trial % 3 {
				case 1:
					delay = sim.Time(i) * sim.Microsecond
				case 2:
					delay = sim.Time(n-i) * sim.Microsecond
				}
				tr.Packets = append(tr.Packets, Packet{
					Seq: int64(i), Size: 100, SendTime: send, RecvTime: send + delay,
					Lost: i > 0 && rng.Intn(8) == 0,
				})
			}
			sorted := tr.Delays()
			sort.Float64s(sorted)
			for _, p := range []float64{0, 50, 95, 99.9, 100} {
				got, want := tr.DelayPercentile(p), percentileSorted(sorted, p)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d trial %d p=%v: selection %v, sort %v", n, trial, p, got, want)
				}
			}
		}
	}
}

func TestReordering(t *testing.T) {
	tr := mkTrace(5, 1000, 10*sim.Millisecond, 20*sim.Millisecond)
	// Make packet 2 arrive after packet 3 was sent but before 3 arrives? No:
	// reorder = packet 3 (seq 3) arrives before packet 2.
	tr.Packets[2].RecvTime = tr.Packets[3].RecvTime + 5*sim.Millisecond // seq 2 arrives late
	flags := tr.ReorderedFlags()
	// Packet with seq 3 arrives at 50ms; packet seq 2 at 55ms... wait: flags
	// mark packets whose recv < running max. Seq 2 recv=55, seq3 recv=50 < 55 → seq 3 flagged.
	if !flags[3] {
		t.Errorf("expected seq-3 packet flagged as reordered, flags=%v", flags)
	}
	if got := tr.ReorderingRate(); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("ReorderingRate = %v, want 0.2", got)
	}
	// Inter-arrival in seq order contains one negative value.
	ia := tr.InterArrivalsBySeq()
	neg := 0
	for _, v := range ia {
		if v < 0 {
			neg++
		}
	}
	if neg != 1 {
		t.Errorf("want exactly 1 negative inter-arrival, got %d (%v)", neg, ia)
	}
}

func TestReorderingRateWindows(t *testing.T) {
	tr := mkTrace(2000, 1000, sim.Millisecond, 10*sim.Millisecond)
	rates := tr.ReorderingRateWindows(sim.Second)
	if len(rates) < 2 {
		t.Fatalf("want ≥2 windows, got %d", len(rates))
	}
	for _, r := range rates {
		if r != 0 {
			t.Errorf("in-order trace has nonzero window reordering rate %v", r)
		}
	}
	// Swap two arrivals in the second window.
	tr.Packets[1500].RecvTime, tr.Packets[1501].RecvTime = tr.Packets[1501].RecvTime, tr.Packets[1500].RecvTime
	rates = tr.ReorderingRateWindows(sim.Second)
	nz := 0
	for _, r := range rates {
		if r > 0 {
			nz++
		}
	}
	if nz != 1 {
		t.Errorf("want exactly one window with reordering, got %d", nz)
	}
}

func TestSendRecvRateSeries(t *testing.T) {
	// 1250-byte packets every 10ms → 1 Mbps steady.
	tr := mkTrace(500, 1250, 10*sim.Millisecond, 20*sim.Millisecond)
	s := tr.SendRateSeries(sim.Second)
	if s.Len() < 5 {
		t.Fatalf("series too short: %d", s.Len())
	}
	// Interior windows should be 1 Mbps.
	if got := s.Vals[2]; math.Abs(got-1e6) > 1e5 {
		t.Errorf("send rate window = %v, want ≈1e6", got)
	}
	r := tr.RecvRateSeries(sim.Second)
	if got := r.Vals[2]; math.Abs(got-1e6) > 1e5 {
		t.Errorf("recv rate window = %v, want ≈1e6", got)
	}
}

func TestDelaySeriesCarriesForward(t *testing.T) {
	tr := &Trace{}
	tr.Packets = append(tr.Packets,
		Packet{Seq: 0, Size: 100, SendTime: 0, RecvTime: 30 * sim.Millisecond},
		// Gap: nothing sent between 0.1s and 2.9s.
		Packet{Seq: 1, Size: 100, SendTime: 3 * sim.Second, RecvTime: 3*sim.Second + 60*sim.Millisecond},
	)
	s := tr.DelaySeries(sim.Second)
	if s.Vals[0] != 30 {
		t.Errorf("window 0 delay = %v, want 30", s.Vals[0])
	}
	if s.Vals[1] != 30 || s.Vals[2] != 30 {
		t.Errorf("empty windows should carry forward: %v", s.Vals)
	}
	if s.Vals[3] != 60 {
		t.Errorf("window 3 delay = %v, want 60", s.Vals[3])
	}
}

func TestPeakRecvRate(t *testing.T) {
	// Burst: 100 × 1250B packets arriving 1ms apart = 10 Mbps for 0.1s,
	// then silence. Peak over 100ms sliding windows should be ≈10 Mbps... but
	// over 1s windows only ≈1 Mbps.
	tr := &Trace{}
	for i := 0; i < 100; i++ {
		tr.Packets = append(tr.Packets, Packet{
			Seq: int64(i), Size: 1250,
			SendTime: sim.Time(i) * sim.Millisecond,
			RecvTime: sim.Time(i)*sim.Millisecond + 10*sim.Millisecond,
		})
	}
	p100 := tr.PeakRecvRate(100 * sim.Millisecond)
	if math.Abs(p100-10e6) > 1.5e6 {
		t.Errorf("peak over 100ms = %v, want ≈10e6", p100)
	}
	p1s := tr.PeakRecvRate(sim.Second)
	if p1s > 2e6 {
		t.Errorf("peak over 1s = %v, want ≈1e6", p1s)
	}
}

func TestMinMaxDelay(t *testing.T) {
	tr := mkTrace(10, 100, sim.Millisecond, 20*sim.Millisecond)
	tr.Packets[5].RecvTime = tr.Packets[5].SendTime + 80*sim.Millisecond
	mn, ok := tr.MinDelay()
	if !ok || mn != 20*sim.Millisecond {
		t.Errorf("MinDelay = %v,%v want 20ms,true", mn, ok)
	}
	mx, ok := tr.MaxDelay()
	if !ok || mx != 80*sim.Millisecond {
		t.Errorf("MaxDelay = %v,%v want 80ms,true", mx, ok)
	}
	empty := &Trace{}
	if _, ok := empty.MinDelay(); ok {
		t.Error("empty trace MinDelay ok=true")
	}
}

func TestSeriesIndexAndAt(t *testing.T) {
	s := NewSeries(sim.Second, 100*sim.Millisecond, 10)
	for i := range s.Vals {
		s.Vals[i] = float64(i)
	}
	if i, ok := s.Index(1500 * sim.Millisecond); !ok || i != 5 {
		t.Errorf("Index(1.5s) = %d,%v want 5,true", i, ok)
	}
	if v := s.At(500 * sim.Millisecond); v != 0 {
		t.Errorf("At before start = %v, want clamp to 0", v)
	}
	if v := s.At(10 * sim.Second); v != 9 {
		t.Errorf("At past end = %v, want clamp to 9", v)
	}
	if s.TimeAt(3) != 1300*sim.Millisecond {
		t.Errorf("TimeAt(3) = %v", s.TimeAt(3))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := mkTrace(50, 1500, sim.Millisecond, 15*sim.Millisecond)
	tr.Packets[10].Lost = true
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Packets) != len(tr.Packets) || got.Protocol != tr.Protocol {
		t.Fatal("round trip mismatch")
	}
	if !got.Packets[10].Lost {
		t.Error("lost flag dropped in round trip")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileProperty(t *testing.T) {
	prop := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		tr := &Trace{}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			v = math.Mod(v, 1e6)
			d := sim.Time(math.Abs(v)*1e6) + 1
			tr.Packets = append(tr.Packets, Packet{
				Seq: int64(i), Size: 100,
				SendTime: sim.Time(i) * sim.Millisecond,
				RecvTime: sim.Time(i)*sim.Millisecond + d,
			})
		}
		p1, p2 := float64(a%101), float64(b%101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := tr.DelayPercentile(p1), tr.DelayPercentile(p2)
		lo, hi := tr.DelayPercentile(0), tr.DelayPercentile(100)
		return v1 <= v2+1e-12 && v1 >= lo-1e-12 && v2 <= hi+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: rate series conserves bytes — the sum over windows of
// rate*window equals total bytes sent (within float tolerance).
func TestRateSeriesConservesBytes(t *testing.T) {
	prop := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		tr := &Trace{}
		total := 0
		for i, sz := range sizes {
			size := int(sz%1400) + 100
			total += size
			send := sim.Time(i) * 7 * sim.Millisecond
			tr.Packets = append(tr.Packets, Packet{
				Seq: int64(i), Size: size, SendTime: send, RecvTime: send + 5*sim.Millisecond,
			})
		}
		s := tr.SendRateSeries(100 * sim.Millisecond)
		sum := 0.0
		for _, v := range s.Vals {
			sum += v * 0.1 / 8
		}
		return math.Abs(sum-float64(total)) < 1e-6*float64(total)+1e-3
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
