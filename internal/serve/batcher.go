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
// iboxml.Shape) — are simulated in a single
// iboxml.SimulateTraceLanes call, even when they hit distinct model
// artifacts: each lane steps through its own compiled weights
// (nn.StepBatchLanesInto), so a multi-tenant mix of many fitted
// same-architecture models coalesces instead of fragmenting into
// per-checkpoint singleton groups. The lockstep walk shares the
// per-window setup (feature build, standardization, input
// pre-projection) and gives every member incremental progress — the
// property streaming replay (stream.go) relies on for fair
// time-to-first-chunk. Because the lane-batched walk is
// bitwise-identical to the unbatched one per member, batching changes
// only latency and throughput — never a single response byte.
//
// Pending groups are keyed by Shape alone, never by *iboxml.Model: an
// LRU-evicted-then-reloaded checkpoint gets a fresh pointer but must land
// in the same open group (regression: TestBatchGroupSurvivesReload).
type batcher struct {
	pool   *par.Pool
	window time.Duration
	max    int
	chunk  int // streaming emission granularity, in windows

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

// run simulates one closed group on the pool as a single lane batch and
// delivers per-job results. Streaming jobs get chunks pushed through
// their sinks as the lockstep unroll crosses chunk boundaries; a job
// whose stream consumer has gone away abandons only its own lane.
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
					j.res <- batchResult{size: len(jobs), err: errStreamClosed}
					continue
				}
				j.res <- batchResult{out: outs[i], size: len(jobs)}
			}
			return nil
		})
		if err != nil {
			for _, j := range jobs {
				j.res <- batchResult{err: err}
			}
		}
	}()
}
