// Package par is the repository's deterministic fan-out primitive: a
// bounded worker pool that applies a function to every index of a work
// list and collects the results in input order.
//
// The paper's workloads — fit one iBoxNet per trace, train per-trace
// iBoxML models, replay counterfactual protocols over each (§3–§5) — are
// embarrassingly parallel across traces, but reproducibility is
// non-negotiable: an experiment must produce byte-identical output
// whether it runs on one core or sixty-four. par makes that contract
// structural rather than accidental:
//
//   - results land at out[i] for input i, so collection order never
//     depends on goroutine scheduling;
//   - work items must not share mutable state — in this repository every
//     stochastic component derives its RNG from an explicit (seed,
//     stream) pair (see sim.NewRand), and callers derive each item's
//     seed from its index *before* dispatch;
//   - on failure the error of the lowest-index failing item is returned,
//     which is the same error a serial loop would have stopped at,
//     because dispatch is in input order (any item preceding a failure
//     has already been dispatched and runs to completion).
//
// There is one scheduler, Pool with PoolMap; Map runs on a shared pool
// when given one and on a pool of its own otherwise. The Serial knob is
// the plain loop the determinism tests compare the pool against, so
// experiments can assert serial ≡ pool equality and benchmarks can
// measure the speedup rather than claim it.
package par

import (
	"runtime"

	"ibox/internal/obs"
)

// metrics bundles the fan-out instrumentation handles. All fields are
// nil when observability is disabled (obs.Get() == nil), in which case
// every record call below is a no-op and — crucially — no clock is ever
// read, so a disabled run does literally the same work as before the
// instrumentation existed. Handles are resolved once per PoolMap call,
// never per item.
type metrics struct {
	items    *obs.Counter   // work items completed
	busy     *obs.Histogram // per-item fn duration, ns (sum = busy time)
	capacity *obs.Counter   // Σ per-map wall × workers, ns (utilization denominator)
}

// parMetrics resolves the instrumentation handles, or all-nil when
// disabled.
func parMetrics(workers int) metrics {
	r := obs.Get()
	if r == nil {
		return metrics{}
	}
	r.Counter("par.map_calls").Add(1)
	r.Gauge("par.workers").Set(float64(workers))
	return metrics{
		items:    r.Counter("par.items"),
		busy:     r.Histogram(obs.MetricParItemNs),
		capacity: r.Counter(obs.MetricParCapacityNs),
	}
}

// logItemError reports a failed work item to the structured run log (see
// obs.Logger). Every failing item logs — not just the lowest-index one
// Map returns — because concurrent failures the caller never sees are
// exactly what a post-mortem needs. One nil check when logging is
// disabled.
func logItemError(i int, err error) {
	if l := obs.Logger(); l != nil {
		l.Error("par: work item failed", "item", i, "error", err.Error())
	}
}

// Options control how a fan-out executes. The zero value is the default:
// a pool of one worker per available CPU, made for the call.
type Options struct {
	// Serial forces in-place execution on the calling goroutine (exactly
	// equivalent to a plain loop). It exists for A/B determinism tests
	// and benchmarks; results are identical either way. Serial bypasses
	// Pool entirely.
	Serial bool
	// Pool, when non-nil (and Serial is false), runs the fan-out on this
	// shared worker pool, so nested fan-outs across an entire process
	// share one concurrency budget. Without it Map makes a pool for the
	// call and closes it on return.
	Pool *Pool
}

// Map applies fn to every index in [0, n) and returns the results in
// input order: out[i] = fn(i). If any call fails, Map returns a nil
// slice and the error of the lowest failing index — the same error a
// serial loop would surface, since dispatch is in input order and
// in-flight items run to completion. After a failure no new items are
// dispatched. Unless opts.Serial is set, the items run through PoolMap:
// on opts.Pool, or on a pool of min(GOMAXPROCS, n) workers made for the
// call.
func Map[R any](n int, opts Options, fn func(i int) (R, error)) ([]R, error) {
	if n <= 0 {
		return nil, nil
	}
	if !opts.Serial {
		p := opts.Pool
		if p == nil {
			p = NewPool(min(runtime.GOMAXPROCS(0), n))
			defer p.Close()
		}
		return PoolMap(p, n, fn)
	}
	out := make([]R, n)
	for i := range out {
		r, err := fn(i)
		if err != nil {
			logItemError(i, err)
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// ForEach is Map without result collection: it applies fn to every index
// in [0, n) and returns the lowest-index error, if any. fn typically
// writes into caller-owned, index-disjoint storage.
func ForEach(n int, opts Options, fn func(i int) error) error {
	_, err := Map(n, opts, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}
