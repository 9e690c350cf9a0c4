package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ibox/internal/core"
	"ibox/internal/iboxml"
	"ibox/internal/obs"
	"ibox/internal/par"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// mlCache caches tiny trained checkpoints by (hidden, layers, seed):
// distinct seeds give genuinely different weights for one shape.
var mlCache = struct {
	sync.Mutex
	m map[[3]int64]*iboxml.Model
}{m: map[[3]int64]*iboxml.Model{}}

func trainedMLShape(t testing.TB, hidden, layers int, seed int64) *iboxml.Model {
	t.Helper()
	key := [3]int64{int64(hidden), int64(layers), seed}
	mlCache.Lock()
	defer mlCache.Unlock()
	if m := mlCache.m[key]; m != nil {
		return m
	}
	var samples []iboxml.TrainingSample
	for i := int64(0); i < 2; i++ {
		samples = append(samples, iboxml.TrainingSample{Trace: synthTrace(i, 3*sim.Second)})
	}
	m, err := iboxml.Train(samples, iboxml.Config{
		Hidden: hidden, Layers: layers, Epochs: 1, Seed: seed,
	})
	if err != nil {
		t.Fatalf("train h%d l%d seed %d: %v", hidden, layers, seed, err)
	}
	mlCache.m[key] = m
	return m
}

func saveModel(t testing.TB, m *iboxml.Model, dir, id string) {
	t.Helper()
	if err := m.Save(filepath.Join(dir, id)); err != nil {
		t.Fatalf("save %s: %v", id, err)
	}
}

// splitCase is one way a batch may be scheduled on the pool: how
// wide the pool is, the split floor, whether every other worker is held
// busy, whether the batch has one request or two (on two checkpoints),
// how many pool jobs must run the batch's lanes as a result (lane
// hand-offs), and how many helper workers its lanes may recruit.
type splitCase struct {
	name       string
	workers    int
	floor      int64
	saturate   bool
	single     bool
	wantJobs   int64
	minHelpers int64
	maxHelpers int64
}

// requests is how many requests the case's batch holds.
func (sc splitCase) requests() int {
	if sc.single {
		return 1
	}
	return 2
}

// checkCounts fails the test unless a batch ran as the case's lane
// hand-offs and recruited a number of helpers in its range; counts is
// newSplitServer's jobs.
func (sc splitCase) checkCounts(t *testing.T, counts func() (jobs, helpers int64)) {
	t.Helper()
	jobs, helpers := counts()
	if jobs != sc.wantJobs {
		t.Fatalf("batch ran as %d pool jobs, want %d", jobs, sc.wantJobs)
	}
	if helpers < sc.minHelpers || helpers > sc.maxHelpers {
		t.Fatalf("lanes recruited %d helpers, want %d to %d", helpers, sc.minHelpers, sc.maxHelpers)
	}
}

// splitCases covers both sides of every hand-off and recruitment rule:
// an idle 2-worker pool splits a 2-checkpoint batch into two pool jobs,
// and the lane that finishes last may recruit the worker the other frees;
// a batch of one keeps one job and recruits the idle worker as a helper;
// a 1-worker pool, a saturated pool and a batch below the floor keep it
// in one lockstep job on one core, exactly the unsplit schedule.
var splitCases = []splitCase{
	{name: "one worker", workers: 1, floor: 0, wantJobs: 1},
	{name: "split", workers: 2, floor: 0, wantJobs: 2, maxHelpers: 1},
	{name: "saturated", workers: 2, floor: 0, saturate: true, wantJobs: 1},
	{name: "below floor", workers: 2, floor: splitFloor, wantJobs: 1},
	{name: "batch of one", workers: 2, floor: 0, single: true, wantJobs: 1, minHelpers: 1, maxHelpers: 1},
}

// gatePool holds n workers of pool on jobs that block until the returned
// open function runs (at the latest in cleanup). While every worker is
// held, a group's pool job waits in Do, so requests sent meanwhile join
// the group instead of dispatching.
func gatePool(t testing.TB, pool *par.Pool, n int) (open func()) {
	t.Helper()
	gate := make(chan struct{})
	for w := 0; w < n; w++ {
		started := make(chan struct{})
		go pool.Do(context.Background(), func() error {
			close(started)
			<-gate
			return nil
		})
		<-started
	}
	var once sync.Once
	open = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(open)
	return open
}

// queued reports how many requests b's open groups hold.
func queued(b *batcher) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, g := range b.pending {
		n += len(g.jobs)
	}
	return n
}

// spinUntil polls cond, yielding between polls, and fails the test if it
// stays false for 10 s.
func spinUntil(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// parkedWorkers counts the pool workers parked for their next job, read
// from a goroutine dump: a parked worker blocks in the select at the top
// of par's worker loop, a busy one below the frames of its job.
func parkedWorkers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, frames, _ := strings.Cut(g, "\n")
		if strings.Contains(header, "[select") && strings.HasPrefix(frames, "ibox/internal/par.NewPool.func") {
			n++
		}
	}
	return n
}

// newSplitServer builds a test server for one splitCase with
// observability on (the pool's job counts are the assertion) and drift
// scoring off (it would add pool jobs). Every worker is held busy — the
// saturating ones until the test's cleanup, the rest on a gate — so the
// case's requests queue in one group. It returns the server, its model
// dir, a counter of the pool jobs run besides the holding ones and the
// lanes' helpers (lane hand-offs) together with the helpers recruited,
// and release, which waits until the group holds the case's requests and
// then lets the pool run it.
func newSplitServer(t *testing.T, sc splitCase, mutate func(*Config)) (s *Server, dir string, jobs func() (handoffs, helpers int64), release func()) {
	t.Helper()
	reg := obs.Enable()
	t.Cleanup(obs.Disable)
	s, dir = newTestServer(t, func(c *Config) {
		c.Workers = sc.workers
		c.DriftEvery = -1
		if mutate != nil {
			mutate(c)
		}
	})
	s.batch.floor = sc.floor
	free := sc.workers
	if sc.saturate {
		free = 1
		gatePool(t, s.pool, sc.workers-free)
	}
	open := gatePool(t, s.pool, free)
	// A job counts into par.pool_wait_ns when a worker picks it up, so
	// once every response of a batch is in, its count is exact; a
	// recruited helper is a pool job too.
	jobs = func() (int64, int64) {
		helpers := reg.Counter("serve.lane_helpers").Value()
		return reg.Histogram("par.pool_wait_ns").Count() - int64(sc.workers) - helpers, helpers
	}
	queue := reg.Gauge("par.pool_queue")
	release = func() {
		t.Helper()
		defer open() // on failure too, so the test's deferred ts.Close can finish
		spinUntil(t, "the batch to queue", func() bool {
			return queued(s.batch) == sc.requests() && queue.Value() == 1
		})
		// The gate opens with the batcher locked, so the worker that picks
		// the batch up waits in take until every other free worker has
		// parked: split then finds exactly the idle workers the case has.
		s.batch.mu.Lock()
		defer s.batch.mu.Unlock()
		open()
		spinUntil(t, "the other free workers to park", func() bool {
			return queue.Value() == 0 && parkedWorkers() == free-1
		})
	}
	return s, dir, jobs, release
}

// TestCrossCheckpointBatchEquivalence: two concurrent requests for two
// *different* checkpoints of one shape must share a single micro-batch
// (X-Ibox-Batch-Size: 2 on both) and still answer byte-for-byte what the
// offline unbatched simulation answers for each model — whether the
// batch runs as one lockstep job or splits across idle workers. A batch
// of one never hands off.
func TestCrossCheckpointBatchEquivalence(t *testing.T) {
	mA := trainedMLShape(t, 8, 1, 5)
	mB := trainedMLShape(t, 8, 1, 6)
	inputs := []*trace.Trace{synthTrace(41, 2*sim.Second), synthTrace(42, 2*sim.Second)}
	reqs := []SimulateRequest{
		{Model: "a.json", Input: inputs[0], Seed: 901},
		{Model: "b.json", Input: inputs[1], Seed: 902},
	}
	want := [][]byte{
		encodeResponse(t, SimulateResponse{
			Model: "a.json", Kind: KindIBoxML,
			Metrics: core.MetricsOf(mA.SimulateTrace(inputs[0], nil, 901)),
			Trace:   mA.SimulateTrace(inputs[0], nil, 901),
		}),
		encodeResponse(t, SimulateResponse{
			Model: "b.json", Kind: KindIBoxML,
			Metrics: core.MetricsOf(mB.SimulateTrace(inputs[1], nil, 902)),
			Trace:   mB.SimulateTrace(inputs[1], nil, 902),
		}),
	}

	for _, sc := range splitCases {
		t.Run(sc.name, func(t *testing.T) {
			n := sc.requests()
			s, dir, jobs, release := newSplitServer(t, sc, nil)
			saveModel(t, mA, dir, "a.json")
			saveModel(t, mB, dir, "b.json")
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			var wg sync.WaitGroup
			sizes := make([]string, n)
			bodies := make([][]byte, n)
			codes := make([]int, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					codes[i], sizes[i], bodies[i] = postSimulateSized(t, ts.URL, reqs[i])
				}(i)
			}
			release()
			wg.Wait()
			sc.checkCounts(t, jobs)
			for i := 0; i < n; i++ {
				if codes[i] != 200 {
					t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
				}
				if sizes[i] != fmt.Sprint(n) {
					t.Fatalf("request %d: %s = %q, want %d (cross-checkpoint co-batch)", i, batchSizeHeader, sizes[i], n)
				}
				if !bytes.Equal(bodies[i], want[i]) {
					t.Fatalf("request %d: cross-checkpoint batched body differs from offline unbatched", i)
				}
			}
		})
	}
}

// postSimulateSized is postSimulate plus the batch-size header.
func postSimulateSized(t testing.TB, url string, req SimulateRequest) (int, string, []byte) {
	t.Helper()
	code, hdr, body := postSimulate(t, url, req)
	return code, hdr.Get(batchSizeHeader), body
}

// TestShapeMismatchNeverCoBatches: requests for checkpoints of different
// shapes that queue together must still land in separate batches.
func TestShapeMismatchNeverCoBatches(t *testing.T) {
	s, dir := newTestServer(t, func(c *Config) { c.Workers = 1 })
	saveModel(t, trainedMLShape(t, 8, 1, 5), dir, "h8.json")
	saveModel(t, trainedMLShape(t, 6, 1, 5), dir, "h6.json")
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close) // after the gate opens, so a failed test does not hang

	open := gatePool(t, s.pool, 1)
	in := synthTrace(44, sim.Second)
	var wg sync.WaitGroup
	sizes := make([]string, 2)
	for i, id := range []string{"h8.json", "h6.json"} {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			code, size, body := postSimulateSized(t, ts.URL, SimulateRequest{Model: id, Input: in, Seed: 1})
			if code != 200 {
				t.Errorf("%s: status %d: %s", id, code, body)
			}
			sizes[i] = size
		}(i, id)
	}
	spinUntil(t, "both requests to queue", func() bool { return queued(s.batch) == 2 })
	open()
	wg.Wait()
	for i, size := range sizes {
		if size != "1" {
			t.Fatalf("request %d: batch size %q, want 1 (shapes differ)", i, size)
		}
	}
}

// TestBatchGroupSurvivesReload is the regression test for the
// pointer-keyed grouping bug: the batcher used to key pending groups by
// *iboxml.Model, so an LRU-evicted-then-reloaded checkpoint (same
// artifact, fresh pointer) silently split its group. Keys are shapes
// now: two submissions under one ID through two distinct pointers must
// share a batch.
func TestBatchGroupSurvivesReload(t *testing.T) {
	dir := t.TempDir()
	writeMLModel(t, dir, "m.json")
	m1, err := iboxml.Load(filepath.Join(dir, "m.json"))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := iboxml.Load(filepath.Join(dir, "m.json")) // the "reloaded" pointer
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m2 {
		t.Fatal("expected two distinct model pointers")
	}

	pool := par.NewPool(1)
	t.Cleanup(pool.Close)
	b := newBatcher(pool, 2, 0)
	open := gatePool(t, pool, 1)
	in := synthTrace(45, sim.Second)
	var res []chan batchResult
	for i, m := range []*iboxml.Model{m1, m2} {
		res = append(res, b.enqueue(context.Background(), "m.json", m, in, int64(i), false).res)
	}
	open()
	for i, ch := range res {
		r := <-ch
		if r.err != nil {
			t.Fatalf("submission %d: %v", i, r.err)
		}
		if r.size != 2 {
			t.Fatalf("submission %d: batch size %d, want 2 — evicted-then-reloaded checkpoint split its group", i, r.size)
		}
	}
}

// TestServeCrossCheckpointDeterminism races a mixed burst over two
// same-shape checkpoints through the batching front door and checks every
// response byte against the offline serial replay — the serial-vs-batched
// determinism half of the equivalence harness, run under -race in CI —
// both with the serving split floor and with every multi-lane batch
// splitting wherever a worker is idle. The burst queues behind gated
// workers, so BatchMax cuts it into a full batch and a remainder.
func TestServeCrossCheckpointDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name  string
		floor int64
	}{{"default floor", splitFloor}, {"floor 0", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			const n, batchMax = 12, 8
			reg := obs.Enable()
			t.Cleanup(obs.Disable)
			s, dir := newTestServer(t, func(c *Config) {
				c.Workers = 2
				c.BatchMax = batchMax
				c.MaxConcurrent = n
			})
			s.batch.floor = tc.floor
			models := map[string]*iboxml.Model{
				"a.json": trainedMLShape(t, 8, 1, 5),
				"b.json": trainedMLShape(t, 8, 1, 6),
			}
			for id, m := range models {
				saveModel(t, m, dir, id)
			}
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close) // after the gate opens, so a failed test does not hang

			open := gatePool(t, s.pool, 2)
			ids := []string{"a.json", "b.json"}
			type result struct {
				code int
				size string
				body []byte
			}
			results := make([]result, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					id := ids[i%len(ids)]
					code, size, body := postSimulateSized(t, ts.URL, SimulateRequest{
						Model: id, Input: synthTrace(int64(50+i%3), 2*sim.Second), Seed: int64(700 + i%3),
					})
					results[i] = result{code, size, body}
				}(i)
			}
			// A full group leaves the open set with its job still queued.
			queue := reg.Gauge("par.pool_queue")
			spinUntil(t, "the burst to queue", func() bool {
				return queued(s.batch) == n-batchMax && queue.Value() == 2
			})
			open()
			wg.Wait()
			sizes := map[string]int{}
			for i := 0; i < n; i++ {
				if results[i].code != 200 {
					t.Fatalf("request %d: status %d: %s", i, results[i].code, results[i].body)
				}
				sizes[results[i].size]++
				id := ids[i%len(ids)]
				m := models[id]
				out := m.SimulateTrace(synthTrace(int64(50+i%3), 2*sim.Second), nil, int64(700+i%3))
				want := encodeResponse(t, SimulateResponse{
					Model: id, Kind: KindIBoxML, Metrics: core.MetricsOf(out), Trace: out,
				})
				if !bytes.Equal(results[i].body, want) {
					t.Fatalf("request %d (%s): batched response differs from serial offline replay", i, id)
				}
			}
			if want := map[string]int{fmt.Sprint(batchMax): batchMax, fmt.Sprint(n - batchMax): n - batchMax}; !maps.Equal(sizes, want) {
				t.Fatalf("responses per batch size %v, want %v", sizes, want)
			}
		})
	}
}

// TestBatchIdleDispatch: a lone request on an idle pool is picked up at
// once and runs as a batch of one — no second arrival and no timer starts
// it.
func TestBatchIdleDispatch(t *testing.T) {
	m := trainedMLShape(t, 8, 1, 5)
	pool := par.NewPool(2)
	t.Cleanup(pool.Close)
	b := newBatcher(pool, 0, 0)
	in := synthTrace(71, sim.Second)
	var r batchResult
	select {
	case r = <-b.enqueue(context.Background(), "a.json", m, in, 3, false).res:
	case <-time.After(10 * time.Second):
		t.Fatal("a lone request on an idle pool never ran")
	}
	if r.err != nil || r.size != 1 {
		t.Fatalf("lone request: size %d, err %v; want a batch of one", r.size, r.err)
	}
	if !sameTrace(t, r.out, m.SimulateTrace(in, nil, 3)) {
		t.Fatal("lone request differs from its offline replay")
	}
	if n := queued(b); n != 0 {
		t.Fatalf("%d requests still queued after the batch ran", n)
	}
}

// TestBatchQueuedCoalescing: requests that queue while every worker is
// busy run as one batch per shape, and BatchMax cuts a shape's queue into
// batches of at most that many.
func TestBatchQueuedCoalescing(t *testing.T) {
	h8a, h8b, h6 := trainedMLShape(t, 8, 1, 5), trainedMLShape(t, 8, 1, 6), trainedMLShape(t, 6, 1, 5)
	type req struct {
		id   string
		m    *iboxml.Model
		size int // the batch it must run in
	}
	for _, tc := range []struct {
		name string
		max  int
		reqs []req
	}{
		{"one batch per shape", 0, []req{
			{"a.json", h8a, 5}, {"h6.json", h6, 2}, {"b.json", h8b, 5}, {"a.json", h8a, 5},
			{"b.json", h8b, 5}, {"h6.json", h6, 2}, {"a.json", h8a, 5},
		}},
		{"batch max", 2, []req{
			{"a.json", h8a, 2}, {"b.json", h8b, 2}, {"a.json", h8a, 2}, {"b.json", h8b, 2}, {"a.json", h8a, 1},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := par.NewPool(2)
			t.Cleanup(pool.Close)
			b := newBatcher(pool, tc.max, 0)
			open := gatePool(t, pool, 2)
			in := synthTrace(72, sim.Second)
			res := make([]chan batchResult, len(tc.reqs))
			for i, r := range tc.reqs {
				res[i] = b.enqueue(context.Background(), r.id, r.m, in, int64(i), false).res
			}
			open()
			for i, r := range tc.reqs {
				got := <-res[i]
				if got.err != nil || got.size != r.size {
					t.Fatalf("request %d (%s): batch size %d, err %v; want size %d", i, r.id, got.size, got.err, r.size)
				}
				if !sameTrace(t, got.out, r.m.SimulateTrace(in, nil, int64(i))) {
					t.Fatalf("request %d (%s): batched output differs from its offline replay", i, r.id)
				}
			}
		})
	}
}

// TestBatchDrainOnPoolClose: when the pool closes while a group's job is
// still waiting in pool.Do, every request in the group fails with
// ErrPoolClosed — 503 at the API — and nothing is left running (the
// package's leak check covers the dispatch goroutine).
func TestBatchDrainOnPoolClose(t *testing.T) {
	reg := obs.Enable()
	t.Cleanup(obs.Disable)
	s, dir := newTestServer(t, func(c *Config) { c.Workers = 1 })
	writeMLModel(t, dir, "m.json")
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close) // after the gate opens, so a failed test does not hang

	open := gatePool(t, s.pool, 1)
	const n = 2
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, bodies[i] = postSimulate(t, ts.URL, SimulateRequest{
				Model: "m.json", Input: synthTrace(73, sim.Second), Seed: int64(i),
			})
		}(i)
	}
	queue := reg.Gauge("par.pool_queue")
	spinUntil(t, "the group's job to wait for a worker", func() bool {
		return queued(s.batch) == n && queue.Value() == 1
	})
	closed := make(chan struct{})
	go func() { s.pool.Close(); close(closed) }() // waits for the gated worker
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusServiceUnavailable || !strings.Contains(string(bodies[i]), par.ErrPoolClosed.Error()) {
			t.Fatalf("request %d: status %d: %s; want 503 %q", i, codes[i], bodies[i], par.ErrPoolClosed)
		}
	}
	open()
	<-closed
}

// TestBatchSpanStartsAtPickup: a sampled batch's serve.batch span starts
// when a worker picks the batch up, so the time the batch waited for a
// worker is the gap before the span, not part of it.
func TestBatchSpanStartsAtPickup(t *testing.T) {
	reg := obs.Enable()
	t.Cleanup(obs.Disable)
	s, dir := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.TraceSample = 1
		c.DriftEvery = -1
	})
	writeMLModel(t, dir, "m.json")
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close) // after the gate opens, so a failed test does not hang

	open := gatePool(t, s.pool, 1)
	code := make(chan int, 1)
	go func() {
		c, _, _ := postSimulate(t, ts.URL, SimulateRequest{Model: "m.json", Input: synthTrace(74, sim.Second), Seed: 1})
		code <- c
	}()
	spinUntil(t, "the request to queue", func() bool { return queued(s.batch) == 1 })
	obs.StartSpan("gate").End() // everything before it is the wait for a worker
	open()
	if c := <-code; c != http.StatusOK {
		t.Fatalf("simulate: status %d", c)
	}
	var trace struct {
		Events []struct {
			Name    string
			Ts, Dur float64
		} `json:"traceEvents"`
	}
	start, end := map[string]float64{}, map[string]float64{} // span name → µs
	spinUntil(t, "the batch span", func() bool {
		var b bytes.Buffer
		if err := reg.TraceJSON(&b); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b.Bytes(), &trace); err != nil {
			t.Fatal(err)
		}
		for _, ev := range trace.Events {
			start[ev.Name], end[ev.Name] = ev.Ts, ev.Ts+ev.Dur
		}
		_, ok := end["serve.batch"]
		return ok
	})
	if start["serve.batch"] < end["gate"] {
		t.Fatalf("serve.batch span starts at %.1f µs, before the gate opened at %.1f µs: it covers the wait for a worker",
			start["serve.batch"], end["gate"])
	}
}

// sameTrace reports whether two traces encode to the same JSON bytes.
func sameTrace(t testing.TB, got, want *trace.Trace) bool {
	t.Helper()
	var bg, bw bytes.Buffer
	if err := json.NewEncoder(&bg).Encode(got); err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(&bw).Encode(want); err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(bg.Bytes(), bw.Bytes())
}

// sentinelClone returns a same-shape copy of m whose weights are scaled
// into saturation — a sentinel: if lane batching leaked any state across
// lanes, a sentinel neighbor would visibly corrupt the victim's outputs.
// Every weight is scaled in m's artifact, whose weight section (after the
// header line) is raw little-endian float64 under the CRC-32C its header
// declares.
func sentinelClone(t testing.TB, m *iboxml.Model, scale float64) *iboxml.Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	header, sec, _ := bytes.Cut(buf.Bytes(), []byte{'\n'})
	for i := 0; i < len(sec); i += 8 {
		w := math.Float64frombits(binary.LittleEndian.Uint64(sec[i:]))
		binary.LittleEndian.PutUint64(sec[i:], math.Float64bits(w*scale))
	}
	var doc map[string]any
	if err := json.Unmarshal(header, &doc); err != nil {
		t.Fatal(err)
	}
	doc["net"].(map[string]any)["crc32c"] = crc32.Checksum(sec, crc32.MakeTable(crc32.Castagnoli))
	header, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := iboxml.Read(bytes.NewReader(append(append(header, '\n'), sec...)))
	if err != nil {
		t.Fatal(err)
	}
	return clone
}

// FuzzShapeGroup fuzzes the co-batching compatibility decision: whatever
// two checkpoint shapes arrive, incompatible models must never share a
// lane batch (the shape key separates them and the lane layer panics
// rather than corrupting state), and compatible ones must co-batch with
// outputs bitwise-identical to their own unbatched replays — even when
// the neighbor lane carries saturated sentinel weights.
func FuzzShapeGroup(f *testing.F) {
	f.Add(uint8(8), uint8(1), uint8(8), uint8(1), int64(5), int64(6))  // same shape
	f.Add(uint8(8), uint8(1), uint8(6), uint8(1), int64(5), int64(5))  // hidden mismatch
	f.Add(uint8(8), uint8(1), uint8(8), uint8(2), int64(5), int64(5))  // layer mismatch
	f.Add(uint8(3), uint8(3), uint8(3), uint8(3), int64(1), int64(2))  // deep + tiny
	f.Add(uint8(5), uint8(2), uint8(7), uint8(2), int64(9), int64(10)) // odd widths
	f.Fuzz(func(t *testing.T, h1, l1, h2, l2 uint8, seedA, seedB int64) {
		hiddenA, layersA := 1+int(h1)%8, 1+int(l1)%3
		hiddenB, layersB := 1+int(h2)%8, 1+int(l2)%3
		mA := trainedMLShape(t, hiddenA, layersA, seedA%4)
		mB := sentinelClone(t, trainedMLShape(t, hiddenB, layersB, seedB%4), 100)

		inA := synthTrace(46, sim.Second)
		inB := synthTrace(47, sim.Second)
		lanes := []iboxml.ReplayLane{
			{Model: mA, Input: inA, Seed: 11},
			{Model: mB, Input: inB, Seed: 12},
		}
		if mA.Shape() != mB.Shape() {
			// The batcher keys groups by Shape, so these never share a
			// group; forcing them into one batch fails loudly.
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("incompatible lanes did not panic")
				}
				if !strings.Contains(fmt.Sprint(r), "shape") {
					t.Fatalf("unexpected panic: %v", r)
				}
			}()
			iboxml.SimulateTraceLanes(lanes, 0)
			return
		}
		// Compatible: one batch, zero cross-talk — each lane bitwise equals
		// its own unbatched replay despite the sentinel neighbor.
		outs := iboxml.SimulateTraceLanes(lanes, 0)
		wantA := mA.SimulateTrace(inA, nil, 11)
		wantB := mB.SimulateTrace(inB, nil, 12)
		for i, pair := range []struct{ got, want *trace.Trace }{{outs[0], wantA}, {outs[1], wantB}} {
			var bg, bw bytes.Buffer
			if err := json.NewEncoder(&bg).Encode(pair.got); err != nil {
				t.Fatal(err)
			}
			if err := json.NewEncoder(&bw).Encode(pair.want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bg.Bytes(), bw.Bytes()) {
				t.Fatalf("lane %d: batched output differs from unbatched (cross-lane corruption)", i)
			}
		}
	})
}

// TestBatchClosedLaneNeverStarts: a lane whose request is gone by the
// time a worker picks its batch up — a unary replay that timed out or
// lost its client while every worker was busy — is dropped before its
// first window: it comes back abandoned, and no batch runs for it.
func TestBatchClosedLaneNeverStarts(t *testing.T) {
	reg := obs.Enable()
	t.Cleanup(obs.Disable)
	pool := par.NewPool(1)
	t.Cleanup(pool.Close)
	b := newBatcher(pool, 0, 0)
	open := gatePool(t, pool, 1)
	l := b.enqueue(context.Background(), "a.json", trainedMLShape(t, 8, 1, 5), synthTrace(75, sim.Second), 1, false)
	l.close()
	open()
	r := <-l.res
	if r.err != errLaneClosed || r.out != nil {
		t.Fatalf("closed lane: out %v, err %v; want abandoned (%v)", r.out != nil, r.err, errLaneClosed)
	}
	if n := reg.Counter("serve.batches").Value(); n != 0 {
		t.Fatalf("%d batches ran for a lane closed before pickup, want 0", n)
	}
}

// helpedLane runs one lone replay lane of a trainedMLShape(8, 1, 5)
// checkpoint inside a job on pool (two workers), lent the pool through a
// batcher's laneHelpers, and fails unless its output is the offline
// replay's. onHelped runs at the lane's first chunk boundary after a helper
// was recruited (chunk = 1 window), on the lane's own worker; the lane
// keeps offering the idle worker every window until one is.
func helpedLane(t *testing.T, pool *par.Pool, in *trace.Trace, seed int64, onHelped func()) {
	t.Helper()
	b := newBatcher(pool, 0, 1)
	b.helpers.recruits = obs.NewRegistry().Counter("serve.lane_helpers")
	helped := false
	lane := iboxml.ReplayLane{Model: trainedMLShape(t, 8, 1, 5), Input: in, Seed: seed, Helpers: b.helpers,
		Emit: func(int, []float64, []float64) bool {
			if !helped && b.helpers.recruits.Value() > 0 {
				helped = true
				onHelped()
			}
			return true
		}}
	// The lane can only recruit a worker parked for its next job, and a
	// short input offers it few windows: start the lane once both are.
	spinUntil(t, "both workers to park", func() bool { return parkedWorkers() == 2 })
	var out []*trace.Trace
	if err := pool.Do(context.Background(), func() error {
		out = iboxml.SimulateTraceLanes([]iboxml.ReplayLane{lane}, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !helped {
		t.Fatal("the lone lane never recruited the idle worker")
	}
	want := lane.Model.SimulateTrace(in, nil, seed)
	if !bytes.Equal(encodeResponse(t, SimulateResponse{Trace: want}), encodeResponse(t, SimulateResponse{Trace: out[0]})) {
		t.Fatal("helped lane's trace differs from the offline replay")
	}
}

// TestHelperYieldsToQueuedJob: a lone lane's helper hands its worker back
// as soon as a pool.Do job waits. Mid-unroll, the lane's Emit queues a
// job and blocks until it has started, so the lane holds one of the
// pool's two workers and its helper the other: only the helper yielding
// lets the job start. If it does not yield, the test hangs and fails by
// timeout. No clocks.
func TestHelperYieldsToQueuedJob(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	helpedLane(t, pool, synthTrace(91, 3*sim.Second), 9, func() {
		started := make(chan struct{})
		go pool.Do(context.Background(), func() error {
			close(started)
			return nil
		})
		<-started
	})
	spinUntil(t, "both workers to park", func() bool { return parkedWorkers() == 2 })
}

// TestHelperEndsWithPoolClose: Close mid-unroll waits for the lane's job
// and its helper like any in-flight jobs, and the helper leaves when the
// unroll ends, so Close returns with the replay complete and exact.
func TestHelperEndsWithPoolClose(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close() // if the lane fails unhelped, its workers must not outlive the test
	closed := make(chan struct{})
	helpedLane(t, pool, synthTrace(92, 20*sim.Second), 10, func() {
		go func() { pool.Close(); close(closed) }()
	})
	<-closed
}
