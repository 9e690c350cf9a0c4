package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ibox/internal/obs"
)

// Pool is the package's one scheduler: a worker pool for engine-wide
// concurrency budgeting. A long-running process owns ONE Pool sized to
// the machine and funnels every CPU-bound job through it, so concurrent
// requests — and any nested fan-outs they trigger — share a single
// concurrency budget instead of oversubscribing the cores; a Map without
// a pool makes one for the call. The serving path submits individual
// jobs with Do and hands extra work to idle workers with TryGo; the
// offline experiments run whole fan-outs on the pool with PoolMap
// (reached through Options.Pool), whose help-first nested submission
// keeps recursive fan-outs deadlock-free (see PoolMap).
//
// Determinism note: a Pool schedules *independent* jobs; each job's
// result must depend only on its own inputs (the same contract as Map).
// Scheduling keeps byte-determinism because every simulation derives its
// randomness from an explicit seed fixed before dispatch, never from
// which goroutine ran the job or in what order.
type Pool struct {
	jobs    chan poolJob
	workers int

	// workerIDs maps each worker goroutine's runtime id to its state.
	// Populated before NewPool returns and never mutated afterwards, so
	// PoolMap's am-I-on-a-worker lookup is a lock-free map read.
	workerIDs map[uint64]*workerState

	mu     sync.Mutex
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup

	// calls holds Do's finished call records for reuse (see doCall).
	calls chan *doCall

	// waiting counts Do submitters whose job no worker has picked up yet
	// (Waiting). It is kept whether or not observability is on: a lane's
	// helper (TryGo) yields its worker when it is positive.
	waiting atomic.Int64

	queued   *obs.Gauge     // par.pool_queue: waiting, mirrored
	wait     *obs.Histogram // submit → pickup latency, ns
	jobsC    *obs.Counter   // jobs executed by workers
	busy     *obs.Histogram // per-job worker occupancy, ns (see PoolUtilization)
	maps     *obs.Counter   // PoolMap calls (deterministic in the workload)
	inlined  *obs.Counter   // items run inline by their own dispatcher
	depthMax *obs.Gauge     // deepest nested PoolMap observed
}

// workerState is scheduler state owned by exactly one worker goroutine:
// it is only ever read or written by the goroutine it belongs to (the
// worker sets depth around each job; a dispatcher running *on* that
// worker adjusts it around inline help).
type workerState struct {
	// depth is the PoolMap nesting depth of the frame the worker is
	// currently executing: 0 for a plain Do job, d for a sub-job
	// dispatched by a depth-d PoolMap.
	depth int
}

type poolJob struct {
	fn    func() // a TryGo or PoolMap job; nil for a Do job
	call  *doCall
	enq   time.Time
	inst  bool
	waits bool // a Do job: counted in waiting until a worker picks it up
	depth int  // PoolMap nesting depth of this job; 0 for Do jobs
}

// doCall is one Do job: the function and the channel its result comes
// back on. The channel is buffered, so a job whose submitter gave up (ctx
// expired while it ran) still finishes. A record is reused once its
// submitter has taken the result, or once ctx expired before any worker
// took the job; an abandoned one is left to the collector, since its job
// may still be running.
type doCall struct {
	fn   func() error
	done chan error
}

// maxFreeCalls bounds the call records a pool keeps for reuse.
const maxFreeCalls = 64

// goroutineID parses the current goroutine's id from its stack header
// ("goroutine 123 [running]: …"). The same trick the net/http2 goroutine
// tracker uses; ~1 µs, paid once per PoolMap call (never per item).
func goroutineID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	id := uint64(0)
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// ErrPoolClosed is returned by Do after Close.
var ErrPoolClosed = errors.New("par: pool closed")

// NewPool starts a pool with the given number of workers (<=0 selects
// one). Close it when done.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = 1
	}
	p := &Pool{
		jobs:      make(chan poolJob),
		workers:   workers,
		workerIDs: make(map[uint64]*workerState, workers),
		done:      make(chan struct{}),
		calls:     make(chan *doCall, maxFreeCalls),
	}
	if r := obs.Get(); r != nil {
		r.Gauge("par.pool_workers").Set(float64(workers))
		p.queued = r.Gauge("par.pool_queue")
		p.wait = r.Histogram("par.pool_wait_ns")
		p.jobsC = r.Counter("par.pool_jobs")
		p.busy = r.Histogram(obs.MetricPoolBusyNs)
		p.maps = r.Counter("par.pool_maps")
		p.inlined = r.Counter("par.pool_inline")
		p.depthMax = r.Gauge("par.pool_depth_max")
	}
	// Workers register their goroutine ids before NewPool returns, so
	// workerIDs is immutable (and safely lock-free) from then on.
	var registered sync.WaitGroup
	registered.Add(workers)
	var regMu sync.Mutex
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			ws := &workerState{}
			regMu.Lock()
			p.workerIDs[goroutineID()] = ws
			regMu.Unlock()
			registered.Done()
			for {
				// jobs is unbuffered, so nothing can be stranded inside
				// the channel at shutdown: every submitted job is either
				// picked up here (and runs to completion) or its submitter
				// sees done and returns ErrPoolClosed.
				select {
				case j := <-p.jobs:
					if j.waits {
						p.queue(-1)
					}
					// Instrumented, the pickup's one clock read ends the
					// job's wait and starts its occupancy.
					var t0 time.Time
					if j.inst {
						t0 = time.Now()
						p.wait.Observe(int64(t0.Sub(j.enq)))
					}
					ws.depth = j.depth
					if j.call != nil {
						j.call.done <- j.call.fn()
					} else {
						j.fn()
					}
					ws.depth = 0
					if j.inst {
						p.busy.ObserveSince(t0)
						p.jobsC.Add(1)
					}
				case <-p.done:
					return
				}
			}
		}()
	}
	registered.Wait()
	return p
}

// Workers reports the pool's concurrency.
func (p *Pool) Workers() int { return p.workers }

// Waiting reports how many Do calls are waiting for a worker to pick
// their job up. TryGo never waits, so it never counts here.
func (p *Pool) Waiting() int { return int(p.waiting.Load()) }

// queue moves the waiting count, and par.pool_queue with it, by d.
func (p *Pool) queue(d int64) {
	p.waiting.Add(d)
	p.queued.Add(float64(d))
}

// Do runs fn on a pool worker and waits for it to finish. If ctx expires
// while the job is still queued, Do returns ctx.Err() without running fn;
// if it expires while fn is running, Do returns ctx.Err() immediately but
// fn runs to completion on the worker (jobs are not preemptible — keep
// them short and check ctx inside long jobs).
//
// On a warm pool a call allocates nothing: its call record is reused.
func (p *Pool) Do(ctx context.Context, fn func() error) error {
	var c *doCall
	select {
	case c = <-p.calls:
	default:
		c = &doCall{done: make(chan error, 1)}
	}
	c.fn = fn
	j := poolJob{call: c, inst: p.queued != nil, waits: true}
	if j.inst {
		j.enq = time.Now()
	}
	p.queue(1)
	select {
	case p.jobs <- j:
	case <-ctx.Done():
		p.queue(-1)
		p.reuse(c)
		return ctx.Err()
	case <-p.done:
		p.queue(-1)
		p.reuse(c)
		return ErrPoolClosed
	}
	select {
	case err := <-c.done:
		p.reuse(c)
		return err
	case <-ctx.Done():
		// The job is running; it finishes into c.done, which nothing
		// reads, so c is not reused.
		return ctx.Err()
	}
}

// reuse keeps c, whose job either never started or has been collected,
// for a later Do.
func (p *Pool) reuse(c *doCall) {
	c.fn = nil
	select {
	case p.calls <- c:
	default:
	}
}

// TryGo hands fn to a parked worker and returns at once, without waiting
// for fn. It reports whether a worker took the job: false means every
// worker is busy (or the pool is closed) and fn was not run, so the
// caller does the work itself. Nothing is ever queued — true proves a
// worker is running fn right now — so a caller that later waits for fn
// waits on work in progress, never on a queue, and may do so from a
// worker of its own.
func (p *Pool) TryGo(fn func()) bool { return p.tryGo(0, fn) }

// tryGo is the pool's one non-blocking hand-off, shared by TryGo and
// PoolMap's dispatch loop. The job channel is unbuffered, so the send
// succeeds only by rendezvous with a worker parked in its receive.
func (p *Pool) tryGo(depth int, fn func()) bool {
	j := poolJob{depth: depth, fn: fn, inst: p.queued != nil}
	if j.inst {
		j.enq = time.Now()
	}
	select {
	case p.jobs <- j:
		return true
	default:
		return false
	}
}

// PoolMap applies fn to every index in [0, n) on the pool p: results
// land in input order (out[i] = fn(i)), a failure returns a nil slice
// and the error of the lowest failing index, and after a failure no new
// items are dispatched. It would be a method named Pool.Map if Go
// allowed generic methods; Map reaches it for every fan-out that is not
// Serial. A nil p runs the fan-out on a pool made for the call (Map with
// zero Options).
//
// Scheduling is help-first: execution rights belong exclusively to the
// pool's worker goroutines, so at most Workers() items run at any
// moment, no matter how deeply Maps nest.
//
//   - A caller that is NOT a pool worker first enters the pool (Do),
//     so its dispatch loop itself occupies a worker slot. It holds no
//     slot while waiting, so entry can always be granted.
//   - The dispatcher offers each item to the pool with TryGo's
//     non-blocking hand-off. A successful offer proves a parked worker
//     received the item and is running it right now — nothing is ever
//     queued — and when no worker is free the dispatcher runs the item
//     inline on its own goroutine (helping first with its own work
//     rather than blocking on a channel no one may ever drain).
//
// Deadlock-freedom follows: blocking happens only (a) at pool entry,
// where the caller holds no worker, and (b) waiting for dispatched
// items, each of which is actively running on some worker; wait-for
// edges only point parent → child, and the nesting is finite. The
// budget follows from execution rights: there are exactly Workers()
// worker goroutines, each runs one frame at a time, and a parent paused
// inside a nested PoolMap is executing only through its inline child.
//
// Byte-determinism: out[i] depends only on fn(i), so whether an
// item ran inline, on worker 3, or after its siblings is unobservable in
// the results as long as items derive any randomness from their index
// before dispatch (the repository's seed-derivation rule).
func PoolMap[R any](p *Pool, n int, fn func(i int) (R, error)) ([]R, error) {
	if n <= 0 {
		return nil, nil
	}
	if p == nil {
		return Map(n, Options{}, fn)
	}
	if ws := p.workerIDs[goroutineID()]; ws != nil {
		// Already on a pool worker: dispatch directly, nested one deeper.
		return poolMapDispatch(p, ws, n, fn)
	}
	// External caller: enter the pool so the dispatch loop itself holds a
	// worker slot (the concurrency budget stays ≤ Workers()), then
	// dispatch from inside. Do returns ErrPoolClosed after Close.
	var out []R
	var err error
	if doErr := p.Do(context.Background(), func() error {
		out, err = poolMapDispatch(p, p.workerIDs[goroutineID()], n, fn)
		return nil
	}); doErr != nil {
		return nil, doErr
	}
	return out, err
}

// poolMapDispatch is PoolMap's dispatch loop. It always runs on a pool
// worker goroutine; ws is that worker's state.
func poolMapDispatch[R any](p *Pool, ws *workerState, n int, fn func(i int) (R, error)) ([]R, error) {
	depth := ws.depth + 1
	m := parMetrics(p.workers)
	instrumented := m.items != nil
	if instrumented {
		p.maps.Add(1)
		p.depthMax.SetMax(float64(depth))
		mapStart := time.Now()
		defer func() {
			m.capacity.Add(int64(time.Since(mapStart)) * int64(p.workers))
		}()
	}

	out := make([]R, n)
	var (
		wg       sync.WaitGroup
		failed   atomic.Bool
		failMu   sync.Mutex
		firstIdx int
		firstErr error
	)
	record := func(i int, err error) {
		logItemError(i, err)
		failed.Store(true)
		failMu.Lock()
		if firstErr == nil || i < firstIdx {
			firstIdx, firstErr = i, err
		}
		failMu.Unlock()
	}
	runItem := func(i int) {
		var t0 time.Time
		if instrumented {
			t0 = time.Now()
		}
		r, err := fn(i)
		if instrumented {
			m.busy.ObserveSince(t0)
			m.items.Add(1)
		}
		if err != nil {
			record(i, err)
			return
		}
		out[i] = r
	}

	for i := 0; i < n; i++ {
		if failed.Load() {
			// Stop after a failure: dispatch is in input order, so every
			// index below the eventual lowest failure has already been
			// dispatched (or inlined) and runs to completion.
			break
		}
		wg.Add(1)
		if p.tryGo(depth, func() { defer wg.Done(); runItem(i) }) {
			continue // a parked worker has the item and is running it now
		}
		// All workers saturated — help first: run the item here, at the
		// child depth, on this worker's own goroutine.
		wg.Done()
		if instrumented {
			p.inlined.Add(1)
		}
		ws.depth = depth
		runItem(i)
		ws.depth = depth - 1
	}
	wg.Wait()
	if failed.Load() {
		return nil, firstErr
	}
	return out, nil
}

// Close stops accepting jobs and waits for in-flight ones to finish.
// Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.done)
	p.mu.Unlock()
	p.wg.Wait()
}
