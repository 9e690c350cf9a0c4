package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ibox/internal/sim"
	"ibox/internal/trace"
)

// The three replay workloads share one shape: fixtures, a fresh daemon
// (started sz.setups times; the median start is setup_s), a discarded
// warm-up, phase A (closed loop, nproc clients, unary /v1/simulate: the
// capacity figure) and phase B (open loop at the workload's frozen rate:
// the latency figure). Phase A gets 40 % of --seconds and phase B 60 %,
// because a median needs more samples than a throughput does.

// replaySet is the fixtures of one replay workload.
type replaySet struct {
	cks    []ckpt
	warm   []string
	phaseA []target // unary
	phaseB []target // streamed, or phase A's own targets
	rps    float64
}

func splitSeconds(seconds float64) (a, b time.Duration) {
	a = time.Duration(0.4 * seconds * float64(time.Second))
	return a, time.Duration(seconds*float64(time.Second)) - a
}

func synthTraces(seed int64, n int, dur sim.Time, rate float64) []*trace.Trace {
	out := make([]*trace.Trace, n)
	for i := range out {
		out[i] = synthTrace(seed*7919+int64(i), dur, rate)
	}
	return out
}

func ids(cks []ckpt) []string {
	out := make([]string, len(cks))
	for i, c := range cks {
		out[i] = c.id
	}
	return out
}

func buildPaper(cfg *config, dir string) (*replaySet, error) {
	sz := cfg.sz
	cks, err := trainCheckpoints(dir, "paper", cfg.seed, sz.paperCkpts, sz.paperHidden, sz.paperLayers, cfg.nproc, []float64{sz.paperRate})
	if err != nil {
		return nil, err
	}
	unary, stream, err := replayTargets(cks, synthTraces(cfg.seed, sz.paperTraces, sz.paperDur, sz.paperRate), cfg.seed, true, cfg.nproc)
	if err != nil {
		return nil, err
	}
	return &replaySet{cks: cks, warm: ids(cks), phaseA: unary, phaseB: stream, rps: sz.paperRPS}, nil
}

// smallCheckpoints serve both replay_bulk and replay_tiny, so they train
// on both send rates.
func smallCheckpoints(cfg *config, dir string) ([]ckpt, error) {
	sz := cfg.sz
	return trainCheckpoints(dir, "small", cfg.seed, sz.smallCkpts, sz.smallHidden, sz.smallLayers, cfg.nproc, []float64{sz.bulkRate, sz.tinyRate})
}

func buildBulk(cfg *config, cks []ckpt) (*replaySet, error) {
	sz := cfg.sz
	unary, _, err := replayTargets(cks, synthTraces(cfg.seed+1, sz.bulkTraces, sz.bulkDur, sz.bulkRate), cfg.seed, false, cfg.nproc)
	if err != nil {
		return nil, err
	}
	return &replaySet{cks: cks, warm: ids(cks), phaseA: unary, phaseB: unary, rps: sz.bulkRPS}, nil
}

func buildTiny(cfg *config, cks []ckpt) (*replaySet, error) {
	sz := cfg.sz
	unary, _, err := replayTargets(cks, synthTraces(cfg.seed+2, sz.tinyTraces, sz.tinyDur, sz.tinyRate), cfg.seed, false, cfg.nproc)
	if err != nil {
		return nil, err
	}
	return &replaySet{cks: cks, warm: ids(cks), phaseA: unary, phaseB: unary, rps: sz.tinyRPS}, nil
}

func modelDir(cfg *config) (string, error) {
	dir := filepath.Join(cfg.workDir, "models")
	return dir, os.MkdirAll(dir, 0o755)
}

func runReplayPaper(cfg *config) (*result, error) {
	return runReplay(cfg, "replay_paper", func(dir string) (*replaySet, error) { return buildPaper(cfg, dir) })
}

func runReplayBulk(cfg *config) (*result, error) {
	return runReplay(cfg, "replay_bulk", func(dir string) (*replaySet, error) {
		cks, err := smallCheckpoints(cfg, dir)
		if err != nil {
			return nil, err
		}
		return buildBulk(cfg, cks)
	})
}

func runReplayTiny(cfg *config) (*result, error) {
	return runReplay(cfg, "replay_tiny", func(dir string) (*replaySet, error) {
		cks, err := smallCheckpoints(cfg, dir)
		if err != nil {
			return nil, err
		}
		return buildTiny(cfg, cks)
	})
}

// startMeasured starts the daemon n times and keeps the last instance;
// the median start time is the workload's set-up time. Every instance
// that is replaced must drain cleanly.
func startMeasured(cfg *config, r *result, dir string, warm []string) (*daemon, float64, error) {
	var setups []float64
	var d *daemon
	for i := 0; i < cfg.sz.setups; i++ {
		if d != nil {
			err := d.stop()
			r.check(err == nil, "daemon drain after set-up %d: %v", i, err)
		}
		var err error
		d, err = startDaemon(cfg.serveBin, dir, filepath.Join(cfg.workDir, fmt.Sprintf("daemon-%d.log", i)), warm)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, d.setup.Seconds())
	}
	return d, median(setups), nil
}

func runReplay(cfg *config, name string, build func(dir string) (*replaySet, error)) (*result, error) {
	r := newResult(name, cfg.seed)
	dir, err := modelDir(cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	set, err := build(dir)
	if err != nil {
		return nil, fmt.Errorf("fixtures: %w", err)
	}
	r.Detail["harness.fixtures_s"] = time.Since(t0).Seconds()
	if cfg.corrupt {
		corruptTarget(&set.phaseA[0])
		if set.phaseB[0].stream { // otherwise phase B reuses phase A's targets
			corruptTarget(&set.phaseB[0])
		}
	}

	d, setup, err := startMeasured(cfg, r, dir, set.warm)
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	r.set(endToEnd, "setup_s", setup)

	c := newClient(d.base, cfg.nproc)
	defer c.close()
	phaseA, phaseB := splitSeconds(cfg.seconds)
	c.closedLoop(set.phaseA, time.Duration(cfg.sz.warmup*float64(time.Second)))

	// Phase A: capacity.
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	a := c.closedLoop(set.phaseA, phaseA)
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	self1 := selfCPUSeconds()
	var simS, pkts float64
	for i := range a.samples {
		s := &a.samples[i]
		if s.ok {
			simS += set.phaseA[s.target].simSeconds
			pkts += float64(set.phaseA[s.target].packets)
		} else {
			r.note("phase A %s: %s", set.phaseA[s.target].model, s.why)
		}
	}
	att, failed := a.counts()
	r.count("A-closed", att, failed)
	if simS == 0 {
		return r, nil // nothing verified; finish() reports the missing metrics
	}
	r.set(endToEnd, "sim_s_per_wall_s", simS/a.wall.Seconds())
	r.set(endToEnd, "cpu_s_per_sim_s", (cpu1-cpu0)/simS)
	r.Detail["pkts_per_wall_s"] = pkts / a.wall.Seconds()
	r.Detail["phaseA.req_per_s"] = float64(att-failed) / a.wall.Seconds()
	r.Detail["phaseA.daemon_cpu_cores"] = (cpu1 - cpu0) / a.wall.Seconds()
	share := (self1 - self0) / ((self1 - self0) + (cpu1 - cpu0))
	r.Detail["harness.client_cpu_share"] = share
	if share > 0.25 {
		r.Invalid = append(r.Invalid, fmt.Sprintf("client_cpu_share %.2f above 0.25: the generator competes with the daemon", share))
	}

	// Phase B: latency at the frozen rate.
	b := c.openLoop(set.phaseB, set.rps, phaseB)
	for i := range b.samples {
		s := &b.samples[i]
		t := &set.phaseB[s.target]
		if s.ok && t.stream {
			if err := verifyStream(t, s.frames); err != nil {
				s.ok, s.why = false, err.Error()
			}
		}
		if !s.ok {
			r.note("phase B %s: %s", t.model, s.why)
		}
	}
	att, failed = b.counts()
	r.count("B-open", att, failed)
	lat := b.latencies()
	r.Detail["phaseB.samples"] = float64(len(lat))
	r.Detail["phaseB.rate_rps"] = set.rps
	if p50, err := percentile(lat, 50); err == nil {
		r.set(endToEnd, "latency_p50_ms", p50)
	} else {
		r.note("latency_p50_ms: %v", err)
	}
	if p90, err := percentile(lat, 90); err == nil {
		r.Detail["latency_p90_ms"] = p90
	}
	if ff := b.firstFrames(); len(ff) > 0 {
		if v, err := percentile(ff, 50); err == nil {
			r.Detail["ttfc_p50_ms"] = v
		}
		if v, err := percentile(ff, 90); err == nil {
			r.Detail["ttfc_p90_ms"] = v
		}
	}
	if late, err := percentile(b.lateness, 90); err == nil {
		r.Detail["harness.gen_late_p90_ms"] = late
		if p50 := r.Metrics["latency_p50_ms"].Value; late > 0.1*p50 {
			r.Invalid = append(r.Invalid, fmt.Sprintf("gen_late_p90_ms %.3f above 10%% of latency_p50_ms %.3f", late, p50))
		}
	}

	rss, err := peakRSSMiB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	r.set(endToEnd, "peak_rss_mb", rss)
	err = d.stop()
	d = nil
	r.check(err == nil, "daemon drain: %v", err)
	return r, nil
}
