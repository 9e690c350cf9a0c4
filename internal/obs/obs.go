// Package obs is the repository's observability layer: metrics, spans
// and run reports for the experiment pipeline (generate → estimate →
// train → simulate → evaluate), with zero external dependencies.
//
// The design contract, in order of importance:
//
//   - Measurement never affects results. No instrumented code path reads
//     a metric, a clock value recorded here, or any other observability
//     state to make a decision, so the serial ≡ parallel determinism
//     guarantee of internal/par is preserved bit-for-bit whether the
//     layer is enabled or disabled (see the determinism tests in
//     internal/experiments).
//   - Disabled means free. When no registry is installed, Get returns
//     nil and every handle constructor returns a nil pointer whose
//     methods are no-ops; the hot path pays one predictable branch and
//     zero allocations (asserted by testing.AllocsPerRun in the tests).
//     Instrumented call sites also gate their time.Now calls on the
//     handle being non-nil, so a disabled run takes no clock readings.
//   - Enabled means cheap. Counter.Add and Gauge.Set are one atomic op;
//     Histogram.Observe is a bounds computation plus three atomic adds.
//     No locks on the hot path — the registry mutex is only taken when a
//     handle is first created (callers hoist handle lookup out of their
//     per-item loops) and when spans finish.
//
// The layer has three faces:
//
//   - metrics — counters, gauges and fixed-bucket histograms with
//     quantile readout, named like "par.item_ns" (see Registry);
//   - spans — hierarchical timed regions of the pipeline, exportable as
//     Chrome trace-event JSON for chrome://tracing / Perfetto
//     (see Span and Registry.TraceJSON);
//   - the run report — a structured end-of-run summary (RUN_REPORT.json)
//     with per-stage wall time, items processed, worker utilization and
//     histogram summaries (see Registry.BuildReport).
package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// global holds the installed registry; nil means observability is
// disabled (the default).
var global atomic.Pointer[Registry]

// Enable installs a fresh registry and returns it. Any previously
// installed registry keeps its recorded data but receives no new
// measurements.
func Enable() *Registry {
	r := NewRegistry()
	global.Store(r)
	return r
}

// Disable uninstalls the registry; subsequent measurements are no-ops.
func Disable() { global.Store(nil) }

// Get returns the installed registry, or nil when disabled. All Registry
// methods are nil-receiver-safe, so callers can chain unconditionally:
// obs.Get().Counter("x").Add(1) costs one branch when disabled.
func Get() *Registry { return global.Load() }

// Enabled reports whether a registry is installed.
func Enabled() bool { return global.Load() != nil }

// Registry owns every metric and span of one observed run. The zero
// value is not usable; construct with NewRegistry (or Enable).
type Registry struct {
	start time.Time

	mu          sync.Mutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	hists       map[string]*Histogram
	counterVecs map[string]*CounterVec
	gaugeVecs   map[string]*GaugeVec
	histVecs    map[string]*HistogramVec

	spanMu    sync.Mutex
	nextSpan  int64
	spans     []spanRec
	spanLimit int     // max retained finished spans; 0 = unbounded
	spanHead  int     // ring overwrite position once the limit is reached
	active    []*Span // open spans, in start order (see currentSpan)
	freeLanes []int
	lanes     int

	fidMu    sync.Mutex
	fidelity []Fidelity
}

// NewRegistry returns an empty registry clocked from now. Most callers
// want Enable, which also installs it globally.
func NewRegistry() *Registry {
	return &Registry{
		start:       time.Now(),
		counters:    map[string]*Counter{},
		gauges:      map[string]*Gauge{},
		hists:       map[string]*Histogram{},
		counterVecs: map[string]*CounterVec{},
		gaugeVecs:   map[string]*GaugeVec{},
		histVecs:    map[string]*HistogramVec{},
	}
}

// Start returns the registry's epoch (the instant NewRegistry ran).
func (r *Registry) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.start
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (a no-op handle) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil handle.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the counter; 0 on a nil handle.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically updated last-value float64.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. No-op on a nil handle.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(floatBits(v))
}

// Add atomically adjusts the gauge by delta; no-op on a nil handle. It
// makes a gauge usable as a level meter (queue depth, in-flight count)
// maintained by concurrent increments and decrements.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(floatFromBits(old)+delta)) {
			return
		}
	}
}

// SetMax raises the gauge to v if v exceeds the current value (a
// running-maximum gauge, e.g. the deepest nested fan-out observed).
// No-op on a nil handle.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if floatFromBits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, floatBits(v)) {
			return
		}
	}
}

// Value reads the gauge; 0 on a nil handle.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return floatFromBits(g.bits.Load())
}

// Histogram bucket layout: power-of-two bounds starting at 1 µs. Bucket
// b counts observations v (in nanoseconds, or any int64 unit) with
// histBound(b-1) ≤ v < histBound(b); the final bucket is unbounded.
// 1 µs · 2^31 ≈ 36 minutes, far beyond any per-item latency here.
const (
	histFirstBound = 1024 // ns; everything below lands in bucket 0
	histBuckets    = 33
)

// histBound returns the exclusive upper bound of bucket b (the last
// bucket has none).
func histBound(b int) int64 { return histFirstBound << b }

// histBucket maps an observation to its bucket index.
func histBucket(v int64) int {
	if v < histFirstBound {
		return 0
	}
	// bits.Len64 of v/histFirstBound: 1 for [1024,2048), 2 for
	// [2048,4096), …
	b := bits.Len64(uint64(v) / histFirstBound)
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// Histogram is a fixed-bucket latency histogram with atomic updates and
// approximate quantile readout. Values are int64 and conventionally
// nanoseconds (metric names end in "_ns").
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value. No-op on a nil handle.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[histBucket(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveSince records the elapsed time since t0 in nanoseconds. No-op
// (and no clock read) on a nil handle.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(int64(time.Since(t0)))
}

// Count returns the number of observations; 0 on a nil handle.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations; 0 on a nil handle.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// BucketCounts copies the current per-bucket observation counts into
// dst (allocation-free; bucket b's exclusive upper bound is
// histFirstBound<<b, and the last bucket is unbounded). No-op on a nil
// handle.
func (h *Histogram) BucketCounts(dst *[histBuckets]int64) {
	if h == nil {
		return
	}
	for i := range dst {
		dst[i] = h.buckets[i].Load()
	}
}

// HistogramBuckets is the number of buckets every Histogram has.
const HistogramBuckets = histBuckets

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1) by linear
// interpolation within the containing bucket. 0 on a nil or empty
// handle.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	var counts [histBuckets]int64
	h.BucketCounts(&counts)
	return quantileFromCounts(&counts, q)
}

// quantileFromCounts interpolates the q-quantile from a bucket-count
// array — shared by live histograms and the rolling-window deltas.
func quantileFromCounts(counts *[histBuckets]int64, q float64) float64 {
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for b, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next || b == histBuckets-1 {
			lo, hi := float64(0), float64(histBound(b))
			if b > 0 {
				lo = float64(histBound(b - 1))
			}
			if b == histBuckets-1 {
				// Unbounded tail: report its lower edge.
				return lo
			}
			frac := (rank - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return float64(histBound(histBuckets - 1))
}

// HistogramSummary is the JSON-facing digest of a histogram: count,
// sum, mean and interpolated quantiles, in the histogram's native unit
// (nanoseconds by convention).
type HistogramSummary struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum_ns,omitempty"`
	Mean  float64 `json:"mean_ns"`
	P50   float64 `json:"p50_ns"`
	P90   float64 `json:"p90_ns"`
	P99   float64 `json:"p99_ns"`
	Max   float64 `json:"max_ns"`
}

// Summary digests the histogram. Zero value on a nil or empty handle.
func (h *Histogram) Summary() HistogramSummary {
	if h == nil || h.Count() == 0 {
		return HistogramSummary{}
	}
	n := h.Count()
	return HistogramSummary{
		Count: n,
		Sum:   h.Sum(),
		Mean:  float64(h.Sum()) / float64(n),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		Max:   h.Quantile(1),
	}
}

// Snapshot is a point-in-time copy of every metric, suitable for expvar
// publication and report building.
type Snapshot struct {
	Counters   map[string]int64            `json:"counters"`
	Gauges     map[string]float64          `json:"gauges"`
	Histograms map[string]HistogramSummary `json:"histograms"`
}

// Snapshot copies all current metric values. Labeled families flatten
// into the same maps under `name{k1="v1",...}` keys (declared key
// order), so every consumer — expvar, run report, regression gate —
// sees one namespace. Empty snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSummary{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Summary()
	}
	for name, cv := range r.counterVecs {
		for _, c := range cv.v.children() {
			s.Counters[name+"{"+labelString(cv.v.keys, c.vals)+"}"] = c.h.Value()
		}
	}
	for name, gv := range r.gaugeVecs {
		for _, c := range gv.v.children() {
			s.Gauges[name+"{"+labelString(gv.v.keys, c.vals)+"}"] = c.h.Value()
		}
	}
	for name, hv := range r.histVecs {
		for _, c := range hv.v.children() {
			s.Histograms[name+"{"+labelString(hv.v.keys, c.vals)+"}"] = c.h.Summary()
		}
	}
	return s
}
