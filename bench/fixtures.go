package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sync"

	"ibox/internal/core"
	"ibox/internal/iboxml"
	"ibox/internal/iboxnet"
	"ibox/internal/pantheon"
	"ibox/internal/serve"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// Deterministic fixtures. Everything the program under test receives —
// checkpoint files, profile files, request bodies — is generated here
// from the seed, and every expected response is computed with the offline
// call (SimulateTrace / PredictWindows) of the same commit. The seed
// changes the content of every input (weights, delays, send times) but
// not its size: trace durations, packet counts and model shapes are fixed
// per workload, so two seeds cost the same and differ only by noise.

// sizes fixes the shape of every workload. defaultSizes is what
// BENCHMARK.json measures; tinySizes keeps the smoke test inside seconds.
type sizes struct {
	paperHidden, paperLayers, paperCkpts, paperTraces int
	paperDur                                          sim.Time
	paperRate                                         float64 // mean send rate, bytes/s

	smallHidden, smallLayers, smallCkpts int
	bulkTraces                           int
	bulkDur                              sim.Time
	bulkRate                             float64
	tinyTraces                           int
	tinyDur                              sim.Time
	tinyRate                             float64

	// Open-loop request rates, frozen: about 40 % of the closed-loop
	// capacity measured on the reference machine (README.md).
	paperRPS, bulkRPS, tinyRPS float64

	pacedNet, pacedML, unpaced  int
	pacedNetSpeed, pacedMLSpeed float64
	mutateEvery                 float64 // seconds between mutations of the watched session
	profileDur                  sim.Time

	// offline_pipeline: one pass is Fig2 + Fig3 + Table1 at this scale.
	ensembleTraces, rtcTraces, mlEpochs int
	pipelineDur                         sim.Time
	pipelineChildren                    int // processes the passes are split over

	warmup float64 // seconds of discarded load before the timed phases
	setups int     // how many times set-up is repeated; the median is reported
}

func defaultSizes() sizes {
	return sizes{
		paperHidden: 256, paperLayers: 4, paperCkpts: 2, paperTraces: 16,
		paperDur: 10 * sim.Second, paperRate: 210_000,
		smallHidden: 96, smallLayers: 1, smallCkpts: 8,
		bulkTraces: 8, bulkDur: 30 * sim.Second, bulkRate: 1_600_000,
		tinyTraces: 32, tinyDur: 4 * sim.Second, tinyRate: 195_000,
		paperRPS: 10, bulkRPS: 10, tinyRPS: 100,
		pacedNet: 8, pacedML: 2, unpaced: 8,
		pacedNetSpeed: 20, pacedMLSpeed: 5, mutateEvery: 0.025,
		profileDur:     30 * sim.Second,
		ensembleTraces: 12, rtcTraces: 36, mlEpochs: 4, pipelineDur: 10 * sim.Second, pipelineChildren: 4,
		warmup: 2, setups: 3,
	}
}

func tinySizes() sizes {
	return sizes{
		paperHidden: 32, paperLayers: 2, paperCkpts: 2, paperTraces: 4,
		paperDur: 8 * sim.Second, paperRate: 100_000,
		smallHidden: 16, smallLayers: 1, smallCkpts: 2,
		bulkTraces: 2, bulkDur: 4 * sim.Second, bulkRate: 400_000,
		tinyTraces: 4, tinyDur: 2 * sim.Second, tinyRate: 100_000,
		paperRPS: 20, bulkRPS: 20, tinyRPS: 120,
		pacedNet: 2, pacedML: 1, unpaced: 2,
		pacedNetSpeed: 20, pacedMLSpeed: 5, mutateEvery: 0.05,
		profileDur:     6 * sim.Second,
		ensembleTraces: 2, rtcTraces: 6, mlEpochs: 1, pipelineDur: 4 * sim.Second, pipelineChildren: 2,
		warmup: 0.2, setups: 1,
	}
}

// synthTrace is a seeded send-side trace with observed delays: a paced
// sender whose rate swings ±50 % around rate on a 2-second cycle, over a
// path whose delay follows the smoothed rate. The cycle divides every
// workload duration, so the packet count does not depend on the seed;
// the seed sets the cycle's phase and the delay noise.
func synthTrace(seed int64, dur sim.Time, rate float64) *trace.Trace {
	rng := sim.NewRand(seed, 5)
	phase := 2 * math.Pi * rng.Float64()
	tr := &trace.Trace{Protocol: "synth", PathID: fmt.Sprintf("synth-%d", seed)}
	ema := rate
	var now sim.Time
	for seq := int64(0); ; seq++ {
		r := rate * (1 + 0.5*math.Sin(2*math.Pi*now.Seconds()/2+phase))
		now += sim.Time(1500 / r * float64(sim.Second))
		if now >= dur {
			break
		}
		ema = 0.98*ema + 0.02*r
		delayMs := 20 + 40*(ema/rate) + rng.NormFloat64()
		if delayMs < 1 {
			delayMs = 1
		}
		tr.Packets = append(tr.Packets, trace.Packet{
			Seq: seq, Size: 1500, SendTime: now,
			RecvTime: now + sim.Time(delayMs*float64(sim.Millisecond)),
		})
	}
	return tr
}

// parallel runs fn(0..n-1) on at most width goroutines and returns the
// first error by index.
func parallel(n, width int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, width)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ckpt is one trained checkpoint: its registry id, the in-memory model
// the goldens are computed from, and the file the daemon loads.
type ckpt struct {
	id   string
	path string
	m    *iboxml.Model
}

// trainCheckpoints trains n distinct same-shape checkpoints (one seed
// each) on short synthetic traces at the given send rates, embeds each
// one's held-out calibration so the daemon's drift scoring has a
// baseline, and saves them into dir.
func trainCheckpoints(dir, prefix string, seed int64, n, hidden, layers, width int, rates []float64) ([]ckpt, error) {
	out := make([]ckpt, n)
	err := parallel(n, width, func(i int) error {
		s := seed*1000 + int64(i)*10
		var samples, heldOut []iboxml.TrainingSample
		for k, r := range rates {
			samples = append(samples, iboxml.TrainingSample{Trace: synthTrace(s+int64(k), 4*sim.Second, r)})
			heldOut = append(heldOut, iboxml.TrainingSample{Trace: synthTrace(s+5+int64(k), 4*sim.Second, r)})
		}
		m, err := iboxml.Train(samples, iboxml.Config{Hidden: hidden, Layers: layers, Epochs: 2, Seed: s})
		if err != nil {
			return fmt.Errorf("train %s-%d: %w", prefix, i, err)
		}
		m.SetBaseline(m.Calibrate(heldOut))
		id := fmt.Sprintf("%s-%d.json", prefix, i)
		out[i] = ckpt{id: id, path: filepath.Join(dir, id), m: m}
		return m.Save(out[i].path)
	})
	return out, err
}

// The wire shapes of streamed /v1/replay frames (serve keeps its own
// unexported copies).
type windowsFrame struct {
	Type  string    `json:"type"`
	T0    int       `json:"t0"`
	Mu    []float64 `json:"mu"`
	Sigma []float64 `json:"sigma"`
}

// replayTargets builds, for every trace, a unary /v1/simulate target and
// (when streams is set) a streamed /v1/replay target on the same model,
// input and seed. Trace i goes to checkpoint i mod len(ckpts). One
// offline lane call yields both the window predictions and the sampled
// output trace.
func replayTargets(ckpts []ckpt, traces []*trace.Trace, seed int64, streams bool, width int) (unary, stream []target, err error) {
	unary = make([]target, len(traces))
	if streams {
		stream = make([]target, len(traces))
	}
	err = parallel(len(traces), width, func(i int) error {
		ck, in, reqSeed := ckpts[i%len(ckpts)], traces[i], seed+int64(i)
		var mu, sigma []float64
		outs := iboxml.SimulateTraceLanes([]iboxml.ReplayLane{{
			Model: ck.m, Input: in, Seed: reqSeed,
			Emit: func(_ int, m, s []float64) bool {
				mu, sigma = append(mu, m...), append(sigma, s...)
				return true
			},
		}}, 0)
		out := outs[0]
		metrics := core.MetricsOf(out)
		simS, pkts := in.Duration().Seconds(), len(in.Packets)

		body, err := json.Marshal(serve.SimulateRequest{Model: ck.id, Seed: reqSeed, Input: in})
		if err != nil {
			return err
		}
		var golden bytes.Buffer
		if err := json.NewEncoder(&golden).Encode(serve.SimulateResponse{
			Model: ck.id, Kind: serve.KindIBoxML, Metrics: metrics, Trace: out,
		}); err != nil {
			return err
		}
		unary[i] = target{path: "/v1/simulate", body: body, golden: golden.Bytes(), model: ck.id, simSeconds: simS, packets: pkts}
		if !streams {
			return nil
		}
		sbody, err := json.Marshal(serve.ReplayRequest{Model: ck.id, Seed: reqSeed, Input: in})
		if err != nil {
			return err
		}
		tail, err := json.Marshal(struct {
			Metrics core.Metrics `json:"metrics"`
		}{metrics})
		if err != nil {
			return err
		}
		stream[i] = target{
			path: "/v1/replay", body: sbody, stream: true, mu: mu, sigma: sigma, model: ck.id,
			endTail:    append([]byte(","), append(tail[1:], '\n')...),
			simSeconds: simS, packets: pkts,
		}
		return nil
	})
	return unary, stream, err
}

// verifyStream checks one streamed response after its phase: window
// frames contiguous from t0 = 0, values bitwise equal to the offline
// PredictWindows, and exactly one terminal frame, last, carrying the
// offline metrics.
func verifyStream(t *target, frames []byte) error {
	lines := bytes.SplitAfter(frames, []byte("\n"))
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	if len(lines) < 2 {
		return fmt.Errorf("stream has %d frames, want windows + end", len(lines))
	}
	next := 0
	for _, line := range lines[:len(lines)-1] {
		var f windowsFrame
		if err := json.Unmarshal(line, &f); err != nil {
			return fmt.Errorf("bad frame: %w", err)
		}
		if f.Type != "windows" {
			return fmt.Errorf("frame of type %q before the end of the stream", f.Type)
		}
		if f.T0 != next || len(f.Mu) != len(f.Sigma) || next+len(f.Mu) > len(t.mu) {
			return fmt.Errorf("chunk t0=%d len=%d does not continue at window %d of %d", f.T0, len(f.Mu), next, len(t.mu))
		}
		for k := range f.Mu {
			if math.Float64bits(f.Mu[k]) != math.Float64bits(t.mu[next+k]) ||
				math.Float64bits(f.Sigma[k]) != math.Float64bits(t.sigma[next+k]) {
				return fmt.Errorf("window %d differs from offline PredictWindows", next+k)
			}
		}
		next += len(f.Mu)
	}
	if next != len(t.mu) {
		return fmt.Errorf("stream carried %d windows, want %d", next, len(t.mu))
	}
	end := lines[len(lines)-1]
	head := fmt.Sprintf(`{"type":"end","model":%q,"kind":"iboxml","windows":%d,"batch_size":`, t.model, len(t.mu))
	if !bytes.HasPrefix(end, []byte(head)) || !bytes.HasSuffix(end, t.endTail) {
		return fmt.Errorf("terminal frame %q does not match the offline result", bytes.TrimSpace(end))
	}
	return nil
}

// corruptTarget damages a target's expectation, to prove that a wrong
// response fails the run.
func corruptTarget(t *target) {
	if t.stream {
		t.mu = append([]float64(nil), t.mu...)
		t.mu[0]++
		return
	}
	t.golden = append([]byte(nil), t.golden...)
	t.golden[len(t.golden)/2] ^= 1
}

// profile is one fitted iBoxNet path profile on disk.
type profile struct {
	id     string
	params iboxnet.Params
}

// profileSeed fixes the India-Cellular paths, and the ground-truth run on
// each, that the session profiles are fitted from. A fitted bandwidth
// sets how many packets a session simulates per virtual second, so
// profiles drawn from the benchmark seed made session_live's
// sim_s_per_wall_s differ by 17 % between seeds for the same code. The
// profiles are therefore the same under every seed; the seed drives what
// runs over them (each session's sender, cross traffic and loss draws).
const profileSeed = 20

// fitProfiles runs Cubic over n fixed India-Cellular instances, fits an
// iBoxNet profile to each ground-truth trace and saves it into dir.
func fitProfiles(dir string, n int, dur sim.Time, width int) ([]profile, error) {
	out := make([]profile, n)
	err := parallel(n, width, func(i int) error {
		inst := pantheon.IndiaCellular().Sample(profileSeed, i)
		gt, err := inst.Run("cubic", dur, profileSeed*100+int64(i))
		if err != nil {
			return err
		}
		p, err := iboxnet.Estimate(gt, iboxnet.EstimatorConfig{})
		if err != nil {
			return fmt.Errorf("estimate %s: %w", inst.ID, err)
		}
		id := fmt.Sprintf("net-%d.json", i)
		out[i] = profile{id: id, params: p}
		return p.Save(filepath.Join(dir, id))
	})
	return out, err
}
