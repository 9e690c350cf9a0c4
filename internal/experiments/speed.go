package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"ibox/internal/cc"
	"ibox/internal/iboxml"
	"ibox/internal/netsim"
	"ibox/internal/obs"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// SpeedResult reproduces the §4.2 simulation-speed analysis: the paper
// measures 2.2 ms per packet for a 4-layer ≈2M-parameter LSTM on a V100,
// implying a maximum emulated rate of just 5.5 Mbps with 1500-byte
// packets. We measure per-packet inference cost of iBoxML configurations
// of increasing size (pure Go on CPU) and, for contrast, the per-packet
// cost of the iBoxNet discrete-event emulator — the architectural point
// being that per-packet deep inference is orders of magnitude too slow for
// line-rate emulation while the simple network model is not.
type SpeedResult struct {
	Rows []SpeedRow
	// IBoxNetPerPacket is the ground-truth-emulator cost per packet.
	IBoxNetPerPacket time.Duration
	IBoxNetImplied   float64 // Mbps at 1500-byte packets
}

// SpeedRow is one model size's measurement.
type SpeedRow struct {
	Layers, Hidden int
	Params         int
	PerPacket      time.Duration
	ImpliedMbps    float64 // 1500-byte packets
}

// impliedMbps converts a per-packet budget into the maximum sustainable
// emulated data rate for 1500-byte packets.
func impliedMbps(perPacket time.Duration) float64 {
	if perPacket <= 0 {
		return 0
	}
	pktsPerSec := float64(time.Second) / float64(perPacket)
	return pktsPerSec * 1500 * 8 / 1e6
}

// speedBlocks is how many blocks Speed times a model's samples in. A
// block that was preempted, or shared its core, only reads slower, so
// the fastest block's per-step cost is the model's own.
const speedBlocks = 5

// Speed measures per-packet inference cost for several iBoxML sizes and
// for the iBoxNet emulator. The timing-loop sizes come from the Scale
// (SpeedWarmup/SpeedSamples) so Quick-scale runs stay CI-fast; zero
// values fall back to the paper-scale loop sizes.
func Speed(s Scale) (*SpeedResult, error) {
	sp := obs.StartSpan("speed")
	defer sp.End()
	warm, n := s.SpeedWarmup, s.SpeedSamples
	if warm <= 0 {
		warm = 200
	}
	if n <= 0 {
		n = 3000
	}
	res := &SpeedResult{}
	// A tiny training run to obtain a usable model of each size.
	samples := []iboxml.TrainingSample{{Trace: speedTrace(s.Seed)}}
	configs := []struct{ layers, hidden int }{
		{1, 16}, {2, 32}, {4, 64}, {4, 128},
	}
	for _, c := range configs {
		m, err := iboxml.Train(samples, iboxml.Config{
			Hidden: c.hidden, Layers: c.layers, Epochs: 1, Seed: s.Seed,
		})
		if err != nil {
			return nil, err
		}
		// Self-calibration (the throwaway model's own training trace) so a
		// -run speed -report run still carries a fidelity section.
		m.RecordFidelity(fmt.Sprintf("speed/%dx%d", c.layers, c.hidden), samples)
		step := m.PredictPacketDelay()
		feat := []float64{15000, 1.2, 1500, 30}
		for i := 0; i < warm; i++ {
			step(feat)
		}
		per, block := time.Duration(math.MaxInt64), max(n/speedBlocks, 1)
		for range speedBlocks {
			start := time.Now()
			for i := 0; i < block; i++ {
				step(feat)
			}
			per = min(per, time.Since(start)/time.Duration(block))
		}
		res.Rows = append(res.Rows, SpeedRow{
			Layers: c.layers, Hidden: c.hidden, Params: m.NumParams(),
			PerPacket: per, ImpliedMbps: impliedMbps(per),
		})
	}

	// iBoxNet emulator cost per packet: run a paced CBR flow through a
	// discrete-event path and divide wall time by packets processed.
	sched := sim.NewScheduler()
	path := netsim.New(sched, netsim.Config{
		Rate: 12_500_000, BufferBytes: 1_250_000, PropDelay: 20 * sim.Millisecond, Seed: 1,
	})
	flow := cc.NewFlow(sched, path.Port("m"), cc.NewCBR(6_250_000), cc.FlowConfig{
		Duration: 10 * sim.Second, AckDelay: 20 * sim.Millisecond,
	})
	flow.Start()
	start := time.Now()
	sched.RunUntil(12 * sim.Second)
	elapsed := time.Since(start)
	if n := len(flow.Trace().Packets); n > 0 {
		res.IBoxNetPerPacket = elapsed / time.Duration(n)
		res.IBoxNetImplied = impliedMbps(res.IBoxNetPerPacket)
	}
	return res, nil
}

// speedTrace is a minimal training trace for the throwaway speed models.
func speedTrace(seed int64) *trace.Trace {
	tr := &trace.Trace{Protocol: "speed"}
	for i := 0; i < 500; i++ {
		send := sim.Time(i) * 5 * sim.Millisecond
		tr.Packets = append(tr.Packets, trace.Packet{
			Seq: int64(i), Size: 1500, SendTime: send, RecvTime: send + 30*sim.Millisecond,
		})
	}
	return tr
}

func (r *SpeedResult) String() string {
	var b strings.Builder
	b.WriteString("§4.2 simulation speed: per-packet inference cost (CPU, pure Go)\n")
	t := &table{header: []string{"model", "params", "per-packet", "implied Mbps (1500B pkts)"}}
	for _, row := range r.Rows {
		t.add(fmt.Sprintf("iBoxML %dx%d", row.Layers, row.Hidden),
			fmt.Sprintf("%d", row.Params),
			row.PerPacket.String(),
			f2(row.ImpliedMbps))
	}
	t.add("iBoxNet emulator", "-", r.IBoxNetPerPacket.String(), f2(r.IBoxNetImplied))
	b.WriteString(t.String())
	b.WriteString("(paper: 4-layer ≈2M-param LSTM = 2.2 ms/pkt on a V100 ⇒ 5.5 Mbps max emulated rate)\n")
	return b.String()
}
