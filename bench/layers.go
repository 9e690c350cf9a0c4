package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ibox/internal/cc"
	"ibox/internal/core"
	"ibox/internal/iboxml"
	"ibox/internal/iboxnet"
	"ibox/internal/netsim"
	"ibox/internal/nn"
	"ibox/internal/pantheon"
	"ibox/internal/par"
	"ibox/internal/serve"
	"ibox/internal/session"
	"ibox/internal/sim"
)

// The traced pass (--trace 1): separate from the timed run, it produces
// every per-layer metric. It is the same pass whichever workload the
// driver names, because the layer numbers describe the program, not one
// traffic mix: metrics that belong to a workload's shape carry its name
// as a suffix (serve.overhead_ms.replay_tiny), kernel metrics carry the
// model shape (nn.step_us.256x4).
//
// For each replay workload it takes a few fixture requests and, under
// one request id, records an http.request span (client send → last byte,
// single client) and then replays the same bytes through the layers by
// hand in this process — trace.decode → serve.registry_get →
// iboxml.simulate_trace (child iboxml.predict_windows) → core.metrics →
// trace.encode — each a child span. The hand-replayed bytes must equal
// the HTTP response bytes. serve.overhead_ms is http.request minus its
// hand-replayed children: serve's self time (batch-window wait,
// admission, pool hand-off, net/http, loopback). The micro-layers (nn,
// sim, netsim, cc, par, session, …) are timed in tight loops at the
// workloads' shapes.

var replayNames = []string{"replay_paper", "replay_bulk", "replay_tiny"}

const (
	shapePaper = "256x4"
	shapeSmall = "96x1"
)

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, w := range replayNames {
		add("trace.decode_ms."+w, "ms", "lower")
		add("trace.encode_ms."+w, "ms", "lower")
		add("trace.bytes_in."+w, "B", "lower")
		add("trace.bytes_out."+w, "B", "lower")
		add("core.metrics_ms."+w, "ms", "lower")
		add("iboxml.features_ms."+w, "ms", "lower")
		add("iboxml.predict_windows_ms."+w, "ms", "lower")
		add("iboxml.sampling_ms."+w, "ms", "lower")
		add("iboxml.simulate_trace_ms."+w, "ms", "lower")
		add("serve.http_ms."+w, "ms", "lower")
		add("serve.overhead_ms."+w, "ms", "lower")
	}
	for _, p := range []string{"cubic", "vegas", "bbr"} {
		add("core.run_ms."+p, "ms", "lower")
	}
	add("iboxml.lanes_ms_per_lane.2", "ms", "lower")
	add("iboxml.lanes_ms_per_lane.8", "ms", "lower")
	for _, s := range []string{shapePaper, shapeSmall} {
		add("iboxml.load_ms."+s, "ms", "lower")
		add("iboxml.ckpt_bytes."+s, "B", "lower")
		add("iboxml.heldout_nll."+s, "nats", "lower")
		add("iboxml.pit_deviation."+s, "ratio", "lower")
		add("nn.step_us."+s, "us", "lower")
		add("serve.registry_get_cold_ms."+s, "ms", "lower")
	}
	add("iboxml.train_seq_ms", "ms", "lower")
	add("nn.train_step_us", "us", "lower")
	add("nn.lanes_step_us_per_lane."+shapePaper, "us", "lower")
	add("nn.steps_per_req.replay_paper", "count", "lower")
	add("nn.flops_per_step."+shapePaper, "count", "lower") // computed: 2 × parameters
	add("nn.bytes_per_step."+shapePaper, "B", "lower")     // computed: 8 × parameters
	add("nn.gflops."+shapePaper, "GFLOP/s", "higher")      // computed flops over measured step time
	add("nn.compile_ms."+shapePaper, "ms", "lower")
	add("iboxnet.estimate_ms", "ms", "lower")
	add("iboxnet.emulate_ns_per_pkt", "ns", "lower")
	add("sim.event_ns", "ns", "lower")
	add("netsim.send_ns_per_pkt", "ns", "lower")
	add("cc.flow_ns_per_pkt", "ns", "lower")
	add("pantheon.generate_ms_per_trace", "ms", "lower")
	add("par.pool_do_us", "us", "lower")
	add("par.poolmap_item_us", "us", "lower")
	add("par.cpu_utilization", "ratio", "higher")
	add("serve.registry_get_warm_us", "us", "lower")
	add("serve.queue_wait_mean_ms", "ms", "lower")
	add("serve.batch_size_mean", "count", "higher")
	add("serve.batches_cross", "count", "higher")
	add("serve.drift_scored", "count", "higher")
	add("serve.stream_ttfc_ms", "ms", "lower")
	add("serve.stream_chunks_per_req", "count", "higher")
	add("serve.stream_gap_p50_ms", "ms", "lower")
	add("session.create_ms", "ms", "lower")
	add("session.mutate_to_event_ms", "ms", "lower")
	add("session.pace_ratio", "ratio", "higher")
	add("session.lag_p90_ms", "ms", "lower")
	add("session.sse_bytes_per_event", "B", "lower")
	add("session.events_per_virt_s", "1/s", "lower")
	add("session.unpaced_virt_s_per_wall_s", "sim-s/s", "higher")
	add("session.heap_kb_per_idle", "KiB", "lower")
	add("harness.fixtures_s", "s", "lower")
	add("harness.gen_late_p90_ms", "ms", "lower")
	add("harness.client_cpu_share", "ratio", "lower")
	add("harness.trace_overhead_pct", "%", "lower")
	return out
}

// tracer carries the traced pass's state.
type tracer struct {
	cfg   *config
	r     *result
	log   *spanLog
	slice time.Duration // time budget of one micro-loop
}

func (t *tracer) set(name string, v float64) { t.r.set(perLayer, name, v) }

// loop calls fn repeatedly for one slice (at least three times) and
// returns the median duration of a call.
func (t *tracer) loop(fn func()) time.Duration {
	var ds []float64
	for start := time.Now(); len(ds) < 3 || time.Since(start) < t.slice; {
		t0 := time.Now()
		fn()
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sink keeps results alive so the compiler cannot drop a measured call.
var sink any

func runTraced(cfg *config, workload string) (*result, error) {
	t := &tracer{
		cfg: cfg, r: newResult(workload, cfg.seed), log: newSpanLog(),
		slice: time.Duration(cfg.seconds / 100 * float64(time.Second)),
	}
	dir, err := modelDir(cfg)
	if err != nil {
		return nil, err
	}

	// Fixtures of every serve workload, in one model directory.
	t0 := time.Now()
	paper, err := buildPaper(cfg, dir)
	if err != nil {
		return nil, fmt.Errorf("fixtures: %w", err)
	}
	small, err := smallCheckpoints(cfg, dir)
	if err != nil {
		return nil, fmt.Errorf("fixtures: %w", err)
	}
	bulk, err := buildBulk(cfg, small)
	if err != nil {
		return nil, fmt.Errorf("fixtures: %w", err)
	}
	tiny, err := buildTiny(cfg, small)
	if err != nil {
		return nil, fmt.Errorf("fixtures: %w", err)
	}
	fx, err := buildSession(cfg, dir, small)
	if err != nil {
		return nil, fmt.Errorf("fixtures: %w", err)
	}
	t.set("harness.fixtures_s", time.Since(t0).Seconds())
	sets := map[string]*replaySet{"replay_paper": paper, "replay_bulk": bulk, "replay_tiny": tiny}

	warm := append(append([]string{}, paper.warm...), fx.warm()...)
	d, err := startDaemon(cfg.serveBin, dir, filepath.Join(cfg.workDir, "daemon.log"), warm)
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	c := newClient(d.base, max(cfg.nproc, 2))
	defer c.close()
	before, err := d.scrape(c.http)
	if err != nil {
		return nil, err
	}

	// An in-process registry over the same files stands in for the
	// daemon's: its first Get of a checkpoint is the cold load.
	reg := serve.NewRegistry(dir, 64)
	t.registry(reg, paper.warm[0], small[0].id)
	if err := reg.Warm(warm); err != nil {
		return nil, err
	}

	counts := map[string]int{"replay_paper": 20, "replay_bulk": 10, "replay_tiny": 50}
	for _, w := range replayNames {
		t.spanPass(w, sets[w], counts[w], reg, c)
	}
	t.streams(paper, c)
	t.harness(tiny, d, c)

	// A concurrent burst of streams, so the batcher has something to
	// coalesce, then the daemon's own counters across the whole pass.
	burst := c.closedLoop(paper.phaseB, 10*t.slice)
	for i := range burst.samples {
		s := &burst.samples[i]
		err := verifyStream(&paper.phaseB[s.target], s.frames)
		t.r.check(s.ok && err == nil, "burst stream: %s %v", s.why, err)
	}
	after, err := d.scrape(c.http)
	if err != nil {
		return nil, err
	}
	t.daemonCounters(before, after)

	t.sessionsHTTP(fx, d, c)
	err = d.stop()
	d = nil
	t.r.check(err == nil, "daemon drain: %v", err)

	t.sessionsInProcess(fx)
	t.kernels(paper.cks, small, paper, tiny)
	t.checkpoints(paper.cks[0], small[0])
	t.training()
	t.emulation(fx)
	t.scheduling()

	out := filepath.Join(cfg.root, ".bench_build", "results", fmt.Sprintf("trace-seed-%d.json", cfg.seed))
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return nil, err
	}
	if err := t.log.write(out); err != nil {
		return nil, err
	}
	cfg.logf("wrote %d spans to %s", len(t.log.spans), out)
	return t.r, nil
}

// registry measures the in-process registry: the cold Get of one
// checkpoint of each shape, then warm Gets.
func (t *tracer) registry(reg *serve.Registry, paperID, smallID string) {
	for _, c := range []struct{ id, shape string }{{paperID, shapePaper}, {smallID, shapeSmall}} {
		t0 := time.Now()
		_, err := reg.Get(c.id)
		t.set("serve.registry_get_cold_ms."+c.shape, ms(time.Since(t0)))
		t.r.check(err == nil, "registry cold get %s: %v", c.id, err)
	}
	t.set("serve.registry_get_warm_us", us(t.loop(func() { sink, _ = reg.Get(smallID) })))
}

// spanPass records n requests of one replay workload as spans, over HTTP
// and by hand, and reports the medians.
func (t *tracer) spanPass(w string, set *replaySet, n int, reg *serve.Registry, c *client) {
	wk := c.newWorker()
	var httpMs, decodeMs, getUs, simMs, predMs, metricsMs, encodeMs, overheadMs []float64
	var bytesIn, bytesOut float64
	for i := 0; i < n; i++ {
		tg := &set.phaseA[i%len(set.phaseA)]
		id := fmt.Sprintf("%s-%d", w, i)
		var s sample
		httpD := t.log.timed("http.request", id, "", 0, func() { wk.do(tg, &s) })
		t.r.check(s.ok, "%s over HTTP: %s", id, s.why)

		handStart := time.Now()
		var req serve.SimulateRequest
		var derr error
		decD := t.log.timed("trace.decode", id, "hand.replay", 1, func() {
			derr = json.NewDecoder(bytes.NewReader(tg.body)).Decode(&req)
		})
		var model *serve.Model
		var gerr error
		getD := t.log.timed("serve.registry_get", id, "hand.replay", 1, func() { model, gerr = reg.Get(req.Model) })
		if derr != nil || gerr != nil {
			t.r.fail("%s by hand: decode %v, registry %v", id, derr, gerr)
			continue
		}
		// One lane through the entry point the daemon's batcher calls;
		// the last Emit marks where window prediction ends and per-packet
		// sampling begins.
		var lastEmit time.Time
		simStart := time.Now()
		outs := iboxml.SimulateTraceLanes([]iboxml.ReplayLane{{
			Model: model.ML, Input: req.Input, Seed: req.Seed,
			Emit: func(int, []float64, []float64) bool { lastEmit = time.Now(); return true },
		}}, 0)
		simEnd := time.Now()
		t.log.add(span{name: "iboxml.simulate_trace", request: id, parent: "hand.replay", lane: 1, start: simStart, end: simEnd})
		t.log.add(span{name: "iboxml.predict_windows", request: id, parent: "iboxml.simulate_trace", lane: 1, start: simStart, end: lastEmit})
		var metrics core.Metrics
		metD := t.log.timed("core.metrics", id, "hand.replay", 1, func() { metrics = core.MetricsOf(outs[0]) })
		var buf bytes.Buffer
		encD := t.log.timed("trace.encode", id, "hand.replay", 1, func() {
			derr = json.NewEncoder(&buf).Encode(serve.SimulateResponse{Model: model.ID, Kind: model.Kind, Metrics: metrics, Trace: outs[0]})
		})
		t.log.add(span{name: "hand.replay", request: id, lane: 1, start: handStart, end: time.Now()})
		t.r.check(derr == nil && bytes.Equal(buf.Bytes(), tg.golden), "%s: hand-replayed bytes differ from the HTTP response", id)

		simD := simEnd.Sub(simStart)
		httpMs = append(httpMs, ms(httpD))
		decodeMs = append(decodeMs, ms(decD))
		getUs = append(getUs, us(getD))
		simMs = append(simMs, ms(simD))
		predMs = append(predMs, ms(lastEmit.Sub(simStart)))
		metricsMs = append(metricsMs, ms(metD))
		encodeMs = append(encodeMs, ms(encD))
		overheadMs = append(overheadMs, ms(httpD-decD-getD-simD-metD-encD))
		bytesIn, bytesOut = float64(len(tg.body)), float64(len(tg.golden))
	}
	if len(httpMs) == 0 {
		return
	}
	t.set("trace.decode_ms."+w, median(decodeMs))
	t.set("trace.encode_ms."+w, median(encodeMs))
	t.set("trace.bytes_in."+w, bytesIn)
	t.set("trace.bytes_out."+w, bytesOut)
	t.set("core.metrics_ms."+w, median(metricsMs))
	t.set("iboxml.simulate_trace_ms."+w, median(simMs))
	t.set("iboxml.predict_windows_ms."+w, median(predMs))
	t.set("iboxml.sampling_ms."+w, median(simMs)-median(predMs))
	t.set("serve.http_ms."+w, median(httpMs))
	t.set("serve.overhead_ms."+w, median(overheadMs))
	in := set.phaseA[0]
	var req serve.SimulateRequest
	if err := json.Unmarshal(in.body, &req); err == nil {
		window := 100 * sim.Millisecond // iboxml.Config's default, which the fixtures train with
		t.set("iboxml.features_ms."+w, ms(t.loop(func() { sink, _, _ = iboxml.WindowFeatures(req.Input, nil, window) })))
	}
	// Where the request's time goes, as shares of http.request.
	h := median(httpMs)
	t.r.Detail["share.nn+iboxml."+w] = median(simMs) / h
	t.r.Detail["share.trace+metrics."+w] = (median(decodeMs) + median(encodeMs) + median(metricsMs)) / h
	t.r.Detail["share.serve_overhead."+w] = median(overheadMs) / h
	t.r.Detail["registry_get_us."+w] = median(getUs)
}

// streams times single-client streamed replays of the paper workload.
func (t *tracer) streams(paper *replaySet, c *client) {
	wk := c.newWorker()
	var ttfc, chunks, gaps []float64
	for i := 0; i < 10; i++ {
		tg := &paper.phaseB[i%len(paper.phaseB)]
		var s sample
		t.log.timed("http.stream", fmt.Sprintf("stream-%d", i), "", 0, func() { wk.do(tg, &s) })
		err := verifyStream(tg, s.frames)
		t.r.check(s.ok && err == nil, "stream %d: %s %v", i, s.why, err)
		if !s.ok || err != nil {
			continue
		}
		ttfc = append(ttfc, ms(s.first.Sub(s.sent)))
		chunks = append(chunks, float64(len(s.arrived)-1))
		for k := 0; k+2 < len(s.arrived); k++ {
			gaps = append(gaps, ms(s.arrived[k+1].Sub(s.arrived[k])))
		}
	}
	t.set("serve.stream_ttfc_ms", median(ttfc))
	t.set("serve.stream_chunks_per_req", median(chunks))
	t.set("serve.stream_gap_p50_ms", median(gaps))
}

// harness measures the generator itself on the workload most sensitive
// to it: its share of the CPU, how late its open loop fires, and what
// recording a span per request costs in closed-loop throughput.
func (t *tracer) harness(tiny *replaySet, d *daemon, c *client) {
	d0 := max(10*t.slice, time.Second) // p90 of the lateness needs 100 sends
	rate := func(name string, ph *phase) float64 {
		att, failed := ph.counts()
		t.r.count(name, att, failed)
		return float64(att-failed) / ph.wall.Seconds()
	}
	c.closedLoop(tiny.phaseA, d0/2)
	cpu0, _ := d.cpuSeconds()
	self0 := selfCPUSeconds()
	plain := rate("harness-plain", c.closedLoop(tiny.phaseA, d0))
	cpu1, _ := d.cpuSeconds()
	self1 := selfCPUSeconds()
	c.spans = t.log
	traced := rate("harness-traced", c.closedLoop(tiny.phaseA, d0))
	c.spans = nil
	t.set("harness.client_cpu_share", (self1-self0)/((self1-self0)+(cpu1-cpu0)))
	t.set("harness.trace_overhead_pct", 100*(plain-traced)/plain)
	open := c.openLoop(tiny.phaseB, tiny.rps, d0)
	rate("harness-open", open)
	late, err := percentile(open.lateness, 90)
	t.r.check(err == nil, "gen_late_p90_ms: %v", err)
	t.set("harness.gen_late_p90_ms", late)
}

// daemonCounters reports deltas of the daemon's own /metrics counters —
// an existing public endpoint, no new instrumentation.
func (t *tracer) daemonCounters(before, after map[string]float64) {
	delta := func(k string) float64 { return after[k] - before[k] }
	t.r.check(delta("serve_batch_size_count") > 0 && delta("serve_queue_wait_ns_count") > 0,
		"daemon /metrics has no serve_batch_size / serve_queue_wait_ns histograms")
	t.set("serve.batch_size_mean", delta("serve_batch_size_sum")/max(delta("serve_batch_size_count"), 1))
	t.set("serve.queue_wait_mean_ms", delta("serve_queue_wait_ns_sum")/max(delta("serve_queue_wait_ns_count"), 1)/1e6)
	t.set("serve.batches_cross", delta("serve_batches_cross_total"))
	t.set("serve.drift_scored", delta("serve_drift_scored_total"))
	t.r.check(delta("serve_shed_total") == 0, "daemon shed %g requests", delta("serve_shed_total"))
	t.r.check(delta("serve_model_load_errors_total") == 0, "daemon failed %g model loads", delta("serve_model_load_errors_total"))
}

// sessionsHTTP runs a short paced phase against the daemon for the
// control-plane round trips and the telemetry stream's cost.
func (t *tracer) sessionsHTTP(fx *sessionFixtures, d *daemon, c *client) {
	api := &sessionAPI{hc: c.http, base: d.base, r: t.r}
	// At speed 20 a summary event arrives every 10 ms; p90 of the lag
	// needs 100 of them.
	p := pacedPhase(t.cfg, api, fx, max(20*t.slice, 1500*time.Millisecond))
	t.set("session.create_ms", median(p.createMs))
	t.set("session.mutate_to_event_ms", median(p.mutateMs))
	t.set("session.pace_ratio", p.paceRatio)
	lag, err := percentile(p.lagMs, 90)
	t.r.check(err == nil, "session.lag_p90_ms: %v", err)
	t.set("session.lag_p90_ms", lag)
	t.set("session.sse_bytes_per_event", float64(p.watched.bytes)/float64(max(p.watched.events, 1)))
}

// sessionsInProcess runs the session layer with no HTTP: one unpaced
// session's speed and telemetry volume, and the heap an idle session
// holds.
func (t *tracer) sessionsInProcess(fx *sessionFixtures) {
	mgr := session.NewManager(session.Limits{MaxSessions: 4096, TTL: -1}, nil)
	defer mgr.Shutdown()
	cfg := session.Config{
		Kind: session.KindIBoxNet, Checkpoint: fx.profiles[0].id, Net: fx.profiles[0].params, Variant: iboxnet.Full,
		Protocol: "cubic", Seed: t.cfg.seed, Speed: -1, Duration: sim.FromSeconds(1e7),
	}
	t0 := time.Now()
	s, err := mgr.Create(cfg)
	if err != nil {
		t.r.fail("in-process session: %v", err)
		return
	}
	time.Sleep(5 * t.slice)
	info, wall := s.Info(), time.Since(t0).Seconds()
	s.Close("bench")
	t.r.check(info.VTSeconds > 0, "unpaced in-process session made no progress")
	t.set("session.unpaced_virt_s_per_wall_s", info.VTSeconds/wall)
	t.set("session.events_per_virt_s", float64(info.Events)/max(info.VTSeconds, 1e-9))

	const idle = 1000
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cfg.Speed = 1
	for i := 0; i < idle; i++ { // the manager keeps them alive until its Shutdown
		cfg.Seed = t.cfg.seed + int64(i)
		s, err := mgr.Create(cfg)
		if err == nil {
			err = s.Pause()
		}
		if err != nil {
			t.r.fail("idle session %d: %v", i, err)
			return
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	t.r.check(mgr.Active() == idle, "%d idle sessions alive, want %d", mgr.Active(), idle)
	t.set("session.heap_kb_per_idle", float64(m1.HeapAlloc-m0.HeapAlloc)/1024/idle)
}

// kernels times the compiled inference kernel and the lane entry points.
func (t *tracer) kernels(paperCks, small []ckpt, paper, tiny *replaySet) {
	pm := paperCks[0].m
	step := func(m *iboxml.Model) time.Duration {
		im := m.Net.Infer()
		st := im.NewState()
		in, _, _ := im.Arch()
		x := make([]float64, in)
		return t.loop(func() { sink = im.StepInto(st, x) })
	}
	paperStep := step(pm)
	t.set("nn.step_us."+shapePaper, us(paperStep))
	t.set("nn.step_us."+shapeSmall, us(step(small[0].m)))
	params := float64(pm.NumParams())
	t.set("nn.flops_per_step."+shapePaper, 2*params)
	t.set("nn.bytes_per_step."+shapePaper, 8*params)
	t.set("nn.gflops."+shapePaper, 2*params/paperStep.Seconds()/1e9)
	t.set("nn.steps_per_req.replay_paper", float64(len(paper.phaseB[0].mu)))
	t.set("nn.compile_ms."+shapePaper, ms(t.loop(func() { sink = pm.Net.LSTM.Compile() })))

	// Two lanes, two distinct paper-scale checkpoints.
	pm2 := paperCks[len(paperCks)-1].m
	ims := []*nn.InferModel{pm.Net.Infer(), pm2.Net.Infer()}
	sts := []*nn.InferState{ims[0].NewState(), ims[1].NewState()}
	in, _, _ := ims[0].Arch()
	xs := [][]float64{make([]float64, in), make([]float64, in)}
	t.set("nn.lanes_step_us_per_lane."+shapePaper, us(t.loop(func() { nn.StepBatchLanesInto(ims, sts, xs, nil, 0) }))/2)

	var req serve.SimulateRequest
	if err := json.Unmarshal(paper.phaseA[0].body, &req); err != nil {
		t.r.fail("decode paper fixture: %v", err)
		return
	}
	lanes2 := []iboxml.ReplayLane{{Model: pm, Input: req.Input, Seed: 1}, {Model: pm2, Input: req.Input, Seed: 2}}
	t.set("iboxml.lanes_ms_per_lane.2", ms(t.loop(func() { sink = iboxml.SimulateTraceLanes(lanes2, 0) }))/2)

	var treq serve.SimulateRequest
	if err := json.Unmarshal(tiny.phaseA[0].body, &treq); err != nil {
		t.r.fail("decode tiny fixture: %v", err)
		return
	}
	var lanes8 []iboxml.ReplayLane
	for i := 0; i < 8; i++ {
		lanes8 = append(lanes8, iboxml.ReplayLane{Model: small[i%len(small)].m, Input: treq.Input, Seed: int64(i)})
	}
	t.set("iboxml.lanes_ms_per_lane.8", ms(t.loop(func() { sink = iboxml.SimulateTraceLanes(lanes8, 0) }))/8)
}

// checkpoints reports load time, size and held-out fidelity per shape.
// The fidelity numbers are the guard: a speed change must leave them
// exactly as they were for the same seed.
func (t *tracer) checkpoints(paper, small ckpt) {
	for _, c := range []struct {
		ck    ckpt
		shape string
	}{{paper, shapePaper}, {small, shapeSmall}} {
		var m *iboxml.Model
		var err error
		load := func() { m, err = iboxml.Load(c.ck.path) }
		var d time.Duration
		if c.shape == shapePaper {
			// A paper-scale load takes over a second: time it once.
			t0 := time.Now()
			load()
			d = time.Since(t0)
		} else {
			d = t.loop(load)
		}
		if err != nil {
			t.r.fail("load %s: %v", c.ck.path, err)
			continue
		}
		t.set("iboxml.load_ms."+c.shape, ms(d))
		if fi, err := os.Stat(c.ck.path); err == nil {
			t.set("iboxml.ckpt_bytes."+c.shape, float64(fi.Size()))
		}
		base := m.Baseline()
		t.r.check(base != nil, "%s carries no calibration baseline", c.ck.id)
		if base != nil {
			t.set("iboxml.heldout_nll."+c.shape, base.NLL)
			t.set("iboxml.pit_deviation."+c.shape, base.PITDeviation)
		}
	}
}

// training times the BPTT path: a small iboxml.Train and the bare
// nn.SequenceModel.TrainSequence step.
func (t *tracer) training() {
	const traces, epochs = 4, 3
	var samples []iboxml.TrainingSample
	for i := int64(0); i < traces; i++ {
		samples = append(samples, iboxml.TrainingSample{Trace: synthTrace(t.cfg.seed*31+i, 4*sim.Second, t.cfg.sz.tinyRate)})
	}
	var err error
	d := t.loop(func() {
		sink, err = iboxml.Train(samples, iboxml.Config{Hidden: 16, Layers: 2, Epochs: epochs, Seed: t.cfg.seed})
	})
	t.r.check(err == nil, "iboxml.Train: %v", err)
	t.set("iboxml.train_seq_ms", ms(d)/(traces*epochs))

	const steps = 40
	m := nn.NewSequenceModel(nn.GaussianHead, 4, 16, 2, t.cfg.seed)
	rng := sim.NewRand(t.cfg.seed, 17)
	xs, ys := make([][]float64, steps), make([]float64, steps)
	for i := range xs {
		xs[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		ys[i] = rng.NormFloat64()
	}
	t.set("nn.train_step_us", us(t.loop(func() { sink = m.TrainSequence(xs, ys, nil) }))/steps)
}

// emulation times ground-truth generation, the estimator and the fitted
// emulator on the session workload's first path.
func (t *tracer) emulation(fx *sessionFixtures) {
	dur := t.cfg.sz.profileDur
	inst := pantheon.IndiaCellular().Sample(profileSeed, 0)
	gt, err := inst.Run("cubic", dur, t.cfg.seed)
	if err != nil {
		t.r.fail("pantheon run: %v", err)
		return
	}
	t.set("pantheon.generate_ms_per_trace", ms(t.loop(func() { sink, _ = inst.Run("cubic", dur, t.cfg.seed) })))
	t.set("iboxnet.estimate_ms", ms(t.loop(func() { sink, _ = iboxnet.Estimate(gt, iboxnet.EstimatorConfig{}) })))

	model := &core.Model{Params: fx.profiles[0].params, Variant: iboxnet.Full, TrainTrace: fx.profiles[0].id}
	for _, proto := range []string{"cubic", "vegas", "bbr"} {
		var err error
		d := t.loop(func() { sink, err = model.Run(proto, dur, t.cfg.seed) })
		t.r.check(err == nil, "core.Model.Run %s: %v", proto, err)
		t.set("core.run_ms."+proto, ms(d))
	}
	sender, err := cc.NewSender("cubic", 1500)
	if err != nil {
		t.r.fail("cc.NewSender: %v", err)
		return
	}
	t0 := time.Now()
	tr, err := model.RunSender(sender, dur, t.cfg.seed)
	wall := time.Since(t0)
	t.r.check(err == nil && len(tr.Packets) > 0, "core.Model.RunSender: %v", err)
	if err == nil && len(tr.Packets) > 0 {
		t.set("iboxnet.emulate_ns_per_pkt", float64(wall)/float64(len(tr.Packets)))
	}
}

// fixedDelay is the cc.Network stub behind cc.flow_ns_per_pkt: every
// packet arrives after a constant delay, except each 500th, which is
// dropped so a window-based sender stays bounded.
type fixedDelay struct {
	sched *sim.Scheduler
	delay sim.Time
	n     int
}

func (f *fixedDelay) Now() sim.Time { return f.sched.Now() }

func (f *fixedDelay) Send(_ int, onDeliver func(recv sim.Time), onDrop func()) {
	f.n++
	if f.n%500 == 0 {
		f.sched.After(f.delay, onDrop)
		return
	}
	at := f.sched.Now() + f.delay
	f.sched.At(at, func() { onDeliver(at) })
}

// scheduling times the event engine, the packet-level path, the
// transport harness and the worker pool.
func (t *tracer) scheduling() {
	const events = 100_000
	t.set("sim.event_ns", float64(t.loop(func() {
		s := sim.NewScheduler()
		for i := 0; i < events; i++ {
			s.At(sim.Time(i), func() {})
		}
		s.Run()
	}))/events)

	const pkts = 20_000
	t.set("netsim.send_ns_per_pkt", float64(t.loop(func() {
		s := sim.NewScheduler()
		port := netsim.New(s, netsim.Config{Rate: 1_250_000, BufferBytes: 150_000, PropDelay: 20 * sim.Millisecond, Seed: t.cfg.seed}).Port("main")
		gap := sim.Time(1500 / (0.8 * 1_250_000) * float64(sim.Second))
		sent := 0
		var send func()
		send = func() {
			port.Send(1500, func(sim.Time) {}, func() {})
			if sent++; sent < pkts {
				s.After(gap, send)
			}
		}
		s.After(gap, send)
		s.Run()
	}))/pkts)

	var sent int64
	d := t.loop(func() {
		s := sim.NewScheduler()
		sender, err := cc.NewSender("cubic", 1500)
		if err != nil {
			return
		}
		flow := cc.NewFlow(s, &fixedDelay{sched: s, delay: 20 * sim.Millisecond}, sender, cc.FlowConfig{Duration: 5 * sim.Second, AckDelay: 20 * sim.Millisecond})
		flow.Start()
		s.RunUntil(8 * sim.Second)
		sent = flow.Sent()
	})
	t.r.check(sent > 0, "cc.Flow sent nothing")
	t.set("cc.flow_ns_per_pkt", float64(d)/float64(max(sent, 1)))

	pool := par.NewPool(t.cfg.nproc)
	defer pool.Close()
	ctx := context.Background()
	t.set("par.pool_do_us", us(t.loop(func() { pool.Do(ctx, func() error { return nil }) })))
	const items = 10_000
	t.set("par.poolmap_item_us", us(t.loop(func() {
		sink, _ = par.PoolMap(pool, items, func(i int) (int, error) { return i, nil })
	}))/items)

	// One offline pass, for the pool's utilization under nested fan-out.
	cpu0, t0 := selfCPUSeconds(), time.Now()
	_, _, _, err := pipelinePass(pipelineScale(t.cfg.sz, 1+t.cfg.seed%corpusSeeds, pool))
	wall := time.Since(t0).Seconds()
	t.r.check(err == nil, "offline pass: %v", err)
	t.set("par.cpu_utilization", (selfCPUSeconds()-cpu0)/(wall*float64(t.cfg.nproc)))
}
