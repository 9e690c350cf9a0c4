package serve

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"ibox/internal/iboxml"
	"ibox/internal/obs"
	"ibox/internal/par"
	"ibox/internal/trace"
)

// batcher micro-batches iBoxML replay requests across checkpoints.
// Dispatch is work-conserving: the first request of a shape —
// architecture (in, hidden, layers) and window cadence (see
// iboxml.Shape) — opens that shape's group and submits one pool job for
// it, later same-shape requests join the open group, and the worker that
// picks the job up closes the group and runs whatever joined by then as
// one batch. A lone request on an idle pool therefore starts at once, and
// a busy pool coalesces exactly the requests that queued while every
// worker was busy; no timer holds anything back. A group that reaches max
// requests closes at once, and the next arrival opens a new group with a
// job of its own. Same-shape requests share a batch even when they hit
// distinct model artifacts: each lane steps through its own compiled
// weights (nn.StepBatchLanesInto), so a multi-tenant mix of many fitted
// same-architecture models coalesces instead of fragmenting into
// per-checkpoint singleton groups.
//
// A batch runs as one or more lockstep sub-batches, each a single
// iboxml.SimulateTraceLanes call. The lanes, sorted by artifact ID, are
// cut into up to Workers() contiguous sub-batches of roughly equal unroll
// work (windows × parameters, unrollWork); every sub-batch after the
// first that carries at least splitFloor of work goes to an idle pool
// worker, and the rest — including any sub-batch no idle worker took —
// stay in the batch's own pool job as one lockstep batch. Lanes of
// distinct checkpoints share no weight traffic, so paper-scale lanes run
// in parallel on otherwise idle cores. A lane that clears splitFloor
// also carries the pool as its iboxml.Helpers: once it is the last
// active lane of its sub-batch — a batch of one from the start — it
// borrows one idle worker and splits each layer's units with it
// (nn.Split), and the helper goes back as soon as another pool job
// waits. A saturated pool, a one-worker pool and small requests
// therefore keep the single lockstep batch on one core. Within a
// sub-batch the lockstep walk gives every member incremental progress —
// the property streaming replay (stream.go) relies on for fair
// time-to-first-chunk. Because every lane is
// bitwise-identical to its unbatched replay whatever else shares its
// (sub-)batch or helps it, batching, splitting and helping change only
// latency and throughput — never a single response byte.
//
// Open groups are keyed by Shape alone, never by *iboxml.Model: an
// LRU-evicted-then-reloaded checkpoint gets a fresh pointer but must land
// in the same open group (regression: TestBatchGroupSurvivesReload).
type batcher struct {
	pool  *par.Pool
	max   int
	chunk int   // streaming emission granularity, in windows
	floor int64 // least unroll work a sub-batch needs to leave, or a lane to recruit; splitFloor

	helpers *laneHelpers // the pool, lent to lanes that clear floor

	mu      sync.Mutex
	pending map[iboxml.Shape]*group // open groups, whose job no worker has picked up yet

	sizeHist     *obs.Histogram
	batches      *obs.Counter
	shapeOcc     *obs.HistogramVec // serve.batch_shape{shape}: group occupancy
	distinctHist *obs.Histogram    // serve.batch_models: distinct checkpoints per batch
	crossBatches *obs.Counter      // serve.batches_cross: batches spanning >1 checkpoint
}

// group is one shape's batch in the making. Its jobs only grow, under
// batcher.mu, while the group is open.
type group struct {
	jobs []batchJob
}

type batchJob struct {
	model   *iboxml.Model
	id      string // artifact ID (lane ordering)
	input   *trace.Trace
	seed    int64
	sampled bool // a trace-sampled request is in this job
	lane    *lane
}

type batchResult struct {
	out  *trace.Trace
	size int // how many requests shared the batch
	err  error
}

// errLaneClosed reports a lane abandoned because its request went away
// (client disconnect or deadline) before or during its unroll.
var errLaneClosed = errors.New("serve: replay request gone")

// lane is a request's handle on its job in the batcher, the same for a
// unary and a streamed replay. The lane's Emit (push) runs at every chunk
// boundary of the unroll; once the handler closes the lane, push fails
// and the lane abandons the rest of its unroll there, and a lane closed
// before a worker picks its batch up never starts. A streamed lane also
// queues a copy of each chunk for its handler and nudges a 1-buffered
// notify channel, so the lockstep batch never blocks on a client; a
// unary lane queues nothing (its reply is built from the output trace)
// and has no notify channel.
type lane struct {
	closed atomic.Bool
	notify chan struct{}    // nil for a unary lane
	res    chan batchResult // 1-buffered: the job's one result

	mu     sync.Mutex
	chunks []streamChunk
}

// push is the lane's Emit callback; it copies mu/sigma (the unroll owns
// the backing arrays and keeps writing past them).
func (l *lane) push(t0 int, mu, sigma []float64) bool {
	if l.closed.Load() {
		return false
	}
	if l.notify != nil {
		c := streamChunk{t0: t0, mu: append([]float64(nil), mu...), sigma: append([]float64(nil), sigma...)}
		l.mu.Lock()
		l.chunks = append(l.chunks, c)
		l.mu.Unlock()
		select {
		case l.notify <- struct{}{}:
		default:
		}
	}
	return true
}

// drain takes all queued chunks.
func (l *lane) drain() []streamChunk {
	l.mu.Lock()
	cs := l.chunks
	l.chunks = nil
	l.mu.Unlock()
	return cs
}

// close marks the request gone: the lane's next push fails.
func (l *lane) close() { l.closed.Store(true) }

// splitFloor is the least unroll work, in parameter-steps (unrollWork),
// that a sub-batch must carry to be handed to another pool worker, and
// that a lane must carry to recruit a helper worker when it is left
// alone (laneHelpers); below it the sub-batch stays in its batch's own
// pool job and the lane on one core. A hand-off or a helper costs a
// goroutine switch, a cold core and, on a busy daemon, a core another
// request wanted, so it pays only for long unrolls. 5e7
// parameter-steps is ≈15 ms of kernel at the ≈6.4 GFLOP/s the 256×4
// kernel sustains (one multiply-add, two flops, per parameter per step).
// A paper-scale 256×4 lane over a 10 s trace (1.84 M parameters × 100
// windows ≈ 1.8e8) clears it; a 96×1 lane over a 2 MB trace (≈1.2e7) or
// a 31 KB one (≈1.6e6) does not — splitting those ≈1 ms batches gained a
// few percent of throughput on 2 vCPU but cost 4–18 % more CPU per
// simulated second. A 96×1 step is too short to share well between
// cores: a helper buys ≈15–20 % for a whole second core
// (BenchmarkStepSplit: ≈6.3–7.1 µs helped, ≈7.7–8.7 µs not).
const splitFloor = 50_000_000

// laneHelpers lends a batch's lone lanes idle pool workers
// (iboxml.Helpers) and counts each helper recruited in
// serve.lane_helpers, apart from the sub-batch hand-offs split makes.
type laneHelpers struct {
	*par.Pool
	recruits *obs.Counter
}

func (h *laneHelpers) TryGo(fn func()) bool {
	if !h.Pool.TryGo(fn) {
		return false
	}
	h.recruits.Add(1)
	return true
}

func newBatcher(pool *par.Pool, max, chunk int) *batcher {
	if max <= 0 {
		max = 16
	}
	if chunk <= 0 {
		chunk = 64
	}
	b := &batcher{
		pool:    pool,
		max:     max,
		chunk:   chunk,
		floor:   splitFloor,
		pending: make(map[iboxml.Shape]*group),
		helpers: &laneHelpers{Pool: pool},
	}
	if r := obs.Get(); r != nil {
		b.helpers.recruits = r.Counter("serve.lane_helpers")
		b.sizeHist = r.Histogram("serve.batch_size")
		b.batches = r.Counter("serve.batches")
		b.shapeOcc = r.HistogramVec("serve.batch_shape", "shape")
		b.distinctHist = r.Histogram("serve.batch_models")
		b.crossBatches = r.Counter("serve.batches_cross")
	}
	return b
}

// enqueue adds one replay to its shape's open group, opening one (and
// submitting its pool job) if none is open, and returns the job's lane.
// stream makes the lane queue its window chunks for the handler as the
// batch runs. The caller closes the lane once it stops waiting.
func (b *batcher) enqueue(ctx context.Context, id string, m *iboxml.Model, input *trace.Trace, seed int64, stream bool) *lane {
	l := &lane{res: make(chan batchResult, 1)}
	if stream {
		l.notify = make(chan struct{}, 1)
	}
	j := batchJob{model: m, id: id, input: input, seed: seed, sampled: metaFrom(ctx).sampled(), lane: l}
	key := m.Shape()
	b.mu.Lock()
	g := b.pending[key]
	if g == nil {
		g = &group{}
		b.pending[key] = g
		go b.dispatch(key, g)
	}
	g.jobs = append(g.jobs, j)
	if len(g.jobs) >= b.max {
		delete(b.pending, key) // full: the next arrival opens a new group
	}
	b.mu.Unlock()
	return l
}

// dispatch submits g's one pool job. The worker that picks it up takes g
// and runs every request that joined it; if the pool closes first, each of
// them gets ErrPoolClosed.
func (b *batcher) dispatch(key iboxml.Shape, g *group) {
	err := b.pool.Do(context.Background(), func() error {
		b.run(key, b.take(key, g))
		return nil
	})
	if err != nil {
		// The job never ran, so nothing was handed off either.
		for _, j := range b.take(key, g) {
			j.lane.res <- batchResult{err: err}
		}
	}
}

// take closes g, if it is still open, and returns its requests.
func (b *batcher) take(key iboxml.Shape, g *group) []batchJob {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pending[key] == g {
		delete(b.pending, key)
	}
	return g.jobs
}

// run simulates one closed group on the pool worker that took it and
// delivers per-job results. Jobs whose request is already gone are
// dropped before their first window and count in no batch. It hands what
// idle workers can take to them (split) and steps the rest itself as one
// lockstep lane batch, pushing each lane's chunks as its sub-batch's
// unroll crosses chunk boundaries; a lane whose request goes away
// abandons only itself.
func (b *batcher) run(key iboxml.Shape, jobs []batchJob) {
	live := jobs[:0]
	for _, j := range jobs {
		if j.lane.closed.Load() {
			j.lane.res <- batchResult{err: errLaneClosed}
		} else {
			live = append(live, j)
		}
	}
	jobs = live
	if len(jobs) == 0 {
		return
	}
	// Same-checkpoint lanes step adjacently, so a checkpoint whose packed
	// weights fit in L2 (96×1: ≈313 KB) streams them from there for its
	// later lanes. A paper-scale 256×4 checkpoint's 14.7 MB does not: every
	// lane re-streams it from L3 at ≈23 GB/s per core (≈640 µs a step).
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].id < jobs[j].id })

	b.sizeHist.Observe(int64(len(jobs)))
	b.batches.Add(1)
	if b.shapeOcc != nil {
		b.shapeOcc.With(key.String()).Observe(int64(len(jobs)))
	}
	distinct, sampled := 0, false
	for i, j := range jobs {
		if i == 0 || j.id != jobs[i-1].id {
			distinct++
		}
		sampled = sampled || j.sampled
	}
	b.distinctHist.Observe(int64(distinct))
	if distinct > 1 {
		b.crossBatches.Add(1)
	}
	// A batch serves several requests at once, so its span is a top-level
	// lane of its own rather than a child of any one request; it is
	// recorded when any member request is sampled. It starts once a
	// worker has the batch, so the gap before it is the wait for one.
	var sp *obs.Span
	if sampled {
		sp = obs.StartSpan("serve.batch")
		sp.SetItems(len(jobs))
	}
	defer sp.End()
	b.simulate(b.split(jobs), len(jobs))
}

// split divides a batch, whose lanes are sorted by artifact ID, into up
// to Workers() contiguous sub-batches of roughly equal unroll work, and
// hands each sub-batch after the first to a parked pool worker (TryGo)
// when it carries at least b.floor of work. It returns the jobs
// the calling pool job keeps: the first sub-batch plus every later one
// that stayed below the floor or found no idle worker. A batch of one, a
// one-worker pool and a saturated daemon therefore keep the whole batch
// in one lockstep SimulateTraceLanes (whose last lane may still borrow a
// helper; see simulate).
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
// result. size is the whole batch's request count, which responses
// report however the batch was split. Lanes whose unroll work clears
// b.floor may recruit a helper worker once they are the last active one.
func (b *batcher) simulate(jobs []batchJob, size int) {
	lanes := make([]iboxml.ReplayLane, len(jobs))
	for i, j := range jobs {
		lanes[i] = iboxml.ReplayLane{Model: j.model, Input: j.input, Seed: j.seed, Emit: j.lane.push}
		if unrollWork(j) >= b.floor {
			lanes[i].Helpers = b.helpers
		}
	}
	outs := iboxml.SimulateTraceLanes(lanes, b.chunk)
	for i, j := range jobs {
		r := batchResult{out: outs[i], size: size}
		if outs[i] == nil { // abandoned by its Emit
			r.err = errLaneClosed
		}
		j.lane.res <- r
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
