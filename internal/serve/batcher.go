package serve

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"ibox/internal/iboxml"
	"ibox/internal/obs"
	"ibox/internal/par"
	"ibox/internal/trace"
)

// batcher micro-batches iBoxML replay requests across checkpoints.
// Requests arriving within one dispatch window whose models share a
// shape — architecture (in, hidden, layers) and window cadence (see
// iboxml.Shape) — form one batch, even when they hit distinct model
// artifacts: each lane steps through its own compiled weights
// (nn.StepBatchLanesInto), so a multi-tenant mix of many fitted
// same-architecture models coalesces instead of fragmenting into
// per-checkpoint singleton groups.
//
// A flushed batch runs as one or more lockstep sub-batches, each a
// single iboxml.SimulateTraceLanes call. The lanes, sorted by artifact
// ID, are cut into up to Workers() contiguous sub-batches of roughly
// equal unroll work (windows × parameters, unrollWork); every sub-batch
// after the first that carries at least splitFloor of work goes to an
// idle pool worker, and the rest — including any sub-batch no idle
// worker took — stay in the flushing job's own lockstep batch. Lanes
// of distinct checkpoints share no weight traffic, so paper-scale lanes
// run in parallel on otherwise idle cores, while a saturated pool, a
// batch of one and small requests keep the single lockstep batch.
// Within a sub-batch the lockstep walk shares the per-window setup
// (feature build, standardization, input pre-projection) and gives
// every member incremental progress — the property streaming replay
// (stream.go) relies on for fair time-to-first-chunk. Because every
// lane is bitwise-identical to its unbatched replay whatever else
// shares its (sub-)batch, batching and splitting change only latency
// and throughput — never a single response byte.
//
// Pending groups are keyed by Shape alone, never by *iboxml.Model: an
// LRU-evicted-then-reloaded checkpoint gets a fresh pointer but must land
// in the same open group (regression: TestBatchGroupSurvivesReload).
type batcher struct {
	pool   *par.Pool
	window time.Duration
	max    int
	chunk  int   // streaming emission granularity, in windows
	floor  int64 // least unroll work a sub-batch needs to leave; splitFloor

	mu      sync.Mutex
	pending map[iboxml.Shape]*group

	sizeHist     *obs.Histogram
	batches      *obs.Counter
	shapeOcc     *obs.HistogramVec // serve.batch_shape{shape}: group occupancy
	distinctHist *obs.Histogram    // serve.batch_models: distinct checkpoints per batch
	crossBatches *obs.Counter      // serve.batches_cross: batches spanning >1 checkpoint
}

// group is the accumulating batch for one shape.
type group struct {
	jobs  []batchJob
	timer *time.Timer
}

type batchJob struct {
	model   *iboxml.Model
	id      string // artifact ID (lane ordering)
	input   *trace.Trace
	seed    int64
	sampled bool        // a trace-sampled request is in this job
	sink    *streamSink // non-nil for streaming replay requests
	res     chan batchResult
}

type batchResult struct {
	out  *trace.Trace
	size int // how many requests shared the batch
	err  error
}

// errStreamClosed reports a lane abandoned because its stream consumer
// went away (client disconnect or cancel) mid-unroll.
var errStreamClosed = errors.New("serve: stream consumer gone")

// splitFloor is the least unroll work, in parameter-steps (unrollWork),
// that a sub-batch must carry to be handed to another pool worker; below
// it the sub-batch stays in the flushing job's lockstep batch. A hand-off
// costs a goroutine switch, a cold core and, on a busy daemon, a core
// another request wanted, so it pays only for long unrolls. 5e7
// parameter-steps is ≈15 ms of kernel at the ≈6.4 GFLOP/s the 256×4
// kernel sustains (one multiply-add, two flops, per parameter per step).
// A paper-scale 256×4 lane over a 10 s trace (1.84 M parameters × 100
// windows ≈ 1.8e8) clears it; a 96×1 lane over a 2 MB trace (≈1.2e7) or
// a 31 KB one (≈1.6e6) does not — splitting those ≈1 ms batches gained a
// few percent of throughput on 2 vCPU but cost 4–18 % more CPU per
// simulated second.
const splitFloor = 50_000_000

func newBatcher(pool *par.Pool, window time.Duration, max, chunk int) *batcher {
	if window <= 0 {
		window = 2 * time.Millisecond
	}
	if max <= 0 {
		max = 16
	}
	if chunk <= 0 {
		chunk = 64
	}
	b := &batcher{
		pool:    pool,
		window:  window,
		max:     max,
		chunk:   chunk,
		floor:   splitFloor,
		pending: make(map[iboxml.Shape]*group),
	}
	if r := obs.Get(); r != nil {
		b.sizeHist = r.Histogram("serve.batch_size")
		b.batches = r.Counter("serve.batches")
		b.shapeOcc = r.HistogramVec("serve.batch_shape", "shape")
		b.distinctHist = r.Histogram("serve.batch_models")
		b.crossBatches = r.Counter("serve.batches_cross")
	}
	return b
}

// enqueue adds one replay to its shape's group and returns the job's
// result channel. The request joins the open dispatch window for its
// shape (opening one if none is open); the group flushes when the
// window elapses or it reaches max requests. sink, when non-nil, streams
// the lane's window predictions incrementally as the batch runs.
func (b *batcher) enqueue(ctx context.Context, id string, m *iboxml.Model, input *trace.Trace, seed int64, sink *streamSink) chan batchResult {
	j := batchJob{
		model: m, id: id, input: input, seed: seed,
		sampled: metaFrom(ctx).sampled(), sink: sink,
		res: make(chan batchResult, 1),
	}
	key := m.Shape()
	b.mu.Lock()
	g := b.pending[key]
	if g == nil {
		g = &group{}
		b.pending[key] = g
		g.timer = time.AfterFunc(b.window, func() { b.flush(key, g) })
	}
	g.jobs = append(g.jobs, j)
	if len(g.jobs) >= b.max {
		g.timer.Stop()
		b.mu.Unlock()
		b.flush(key, g)
	} else {
		b.mu.Unlock()
	}
	return j.res
}

// submit enqueues one replay and waits for its result. If ctx expires
// first, submit returns early but the simulation still runs with its
// batch — results for abandoned requests are discarded.
func (b *batcher) submit(ctx context.Context, id string, m *iboxml.Model, input *trace.Trace, seed int64) (*trace.Trace, int, error) {
	res := b.enqueue(ctx, id, m, input, seed, nil)
	select {
	case r := <-res:
		return r.out, r.size, r.err
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

// flush closes the group's window and simulates it as one batch on the
// pool. Safe to race between the timer and the size trigger: whoever
// removes the group from pending runs it; the other call finds it gone.
func (b *batcher) flush(key iboxml.Shape, g *group) {
	b.mu.Lock()
	if b.pending[key] != g {
		b.mu.Unlock()
		return
	}
	delete(b.pending, key)
	jobs := g.jobs
	b.mu.Unlock()

	// Same-checkpoint lanes step adjacently so each checkpoint's packed
	// weight stream stays cache-resident across its lanes.
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].id < jobs[j].id })

	b.sizeHist.Observe(int64(len(jobs)))
	b.batches.Add(1)
	if b.shapeOcc != nil {
		b.shapeOcc.With(key.String()).Observe(int64(len(jobs)))
	}
	distinct := 0
	for i, j := range jobs {
		if i == 0 || j.id != jobs[i-1].id {
			distinct++
		}
	}
	b.distinctHist.Observe(int64(distinct))
	if distinct > 1 {
		b.crossBatches.Add(1)
	}
	b.run(jobs)
}

// run simulates one closed group on the pool and delivers per-job
// results. The flushing pool job hands what idle workers can take to
// them (split) and steps the rest itself as one lockstep lane batch.
// Streaming jobs get chunks pushed through their sinks as their
// sub-batch's unroll crosses chunk boundaries; a job whose stream
// consumer has gone away abandons only its own lane.
func (b *batcher) run(jobs []batchJob) {
	sampled := false
	for _, j := range jobs {
		sampled = sampled || j.sampled
	}
	go func() {
		// A batch serves several requests at once, so its span is a
		// top-level lane of its own rather than a child of any one
		// request; it is recorded when any member request is sampled.
		var sp *obs.Span
		if sampled {
			sp = obs.StartSpan("serve.batch")
			sp.SetItems(len(jobs))
		}
		defer sp.End()
		err := b.pool.Do(context.Background(), func() error {
			b.simulate(b.split(jobs), len(jobs))
			return nil
		})
		if err != nil {
			// The job never ran, so nothing was handed off either.
			for _, j := range jobs {
				j.res <- batchResult{err: err}
			}
		}
	}()
}

// split divides a flushed batch, whose lanes are sorted by artifact ID,
// into up to Workers() contiguous sub-batches of roughly equal unroll
// work, and hands each sub-batch after the first to a parked pool worker
// (TryGo) when it carries at least b.floor of work. It returns the jobs
// the calling pool job keeps: the first sub-batch plus every later one
// that stayed below the floor or found no idle worker. A batch of one, a
// one-worker pool and a saturated daemon therefore keep the whole batch:
// one lockstep SimulateTraceLanes, exactly the unsplit schedule.
func (b *batcher) split(jobs []batchJob) []batchJob {
	k := min(b.pool.Workers(), len(jobs))
	if k < 2 {
		return jobs
	}
	cum := make([]int64, len(jobs)+1) // cum[i]: unroll work of lanes [0, i)
	for i, j := range jobs {
		cum[i+1] = cum[i] + unrollWork(j)
	}
	total := cum[len(jobs)]
	// Lane i joins the sub-batch whose 1/k share of the total holds the
	// lane's midpoint, (cum[i]+cum[i+1])/2, so a new sub-batch starts at
	// the first lane whose midpoint reaches the next share boundary. Lane
	// 0 always opens the first; the k-th takes the rest.
	bounds := []int{0}
	for i := 1; i < len(jobs) && len(bounds) < k; i++ {
		if (cum[i]+cum[i+1])*int64(k) >= 2*total*int64(len(bounds)) {
			bounds = append(bounds, i)
		}
	}
	bounds = append(bounds, len(jobs))
	own := append(make([]batchJob, 0, len(jobs)), jobs[:bounds[1]]...)
	for s := 1; s+1 < len(bounds); s++ {
		lo, hi := bounds[s], bounds[s+1]
		sub := jobs[lo:hi]
		if cum[hi]-cum[lo] < b.floor || !b.pool.TryGo(func() { b.simulate(sub, len(jobs)) }) {
			own = append(own, sub...)
		}
	}
	return own
}

// simulate steps jobs as one lockstep lane batch and delivers each job's
// result. size is the flushed batch's request count, which responses
// report however the batch was split.
func (b *batcher) simulate(jobs []batchJob, size int) {
	lanes := make([]iboxml.ReplayLane, len(jobs))
	for i, j := range jobs {
		lanes[i] = iboxml.ReplayLane{Model: j.model, Input: j.input, Seed: j.seed}
		if sk := j.sink; sk != nil {
			lanes[i].Emit = sk.push
		}
	}
	outs := iboxml.SimulateTraceLanes(lanes, b.chunk)
	for i, j := range jobs {
		if outs[i] == nil && j.sink != nil {
			j.res <- batchResult{size: size, err: errStreamClosed}
			continue
		}
		j.res <- batchResult{out: outs[i], size: size}
	}
}

// unrollWork is a job's lockstep unroll cost in parameter-steps: the
// windows its input spans times the compiled parameters every window
// step runs through. Both are properties of the request alone, so
// whether a lane is worth a worker of its own never depends on the
// other requests in its batch.
func unrollWork(j batchJob) int64 {
	return int64(j.input.Duration()/j.model.Cfg.Window) * int64(j.model.NumParams())
}
