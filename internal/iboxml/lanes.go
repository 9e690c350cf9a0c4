package iboxml

import (
	"fmt"
	"time"

	"ibox/internal/nn"
	"ibox/internal/obs"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// Batched closed-loop inference: unroll several independent traces in
// lockstep, one window-step per member per round, on the compiled
// inference kernel (nn.InferModel). Lanes need not share a checkpoint —
// each lane carries its own trained Model and the kernel steps it through
// its own compiled weights (nn.StepBatchLanesInto) — they only have to
// share a Shape: architecture plus windowing. This is the amortization
// behind cross-checkpoint request micro-batching in internal/serve: the
// per-call setup — feature extraction, lane states and scratch — is paid
// once per lane per call instead of once per request round-trip, and the
// lockstep loop itself is allocation-free (lane states, one standardized
// row per lane, and the head scratch are set up once per call and reused
// every step).
//
// Each lane steps through the packed inference layout, where a unit's
// four gate rows run as four parallel accumulator chains off one weight
// stream and the gate activations run four units at a time (SIMD lanes
// where available; see internal/nn). Each step standardizes its whole
// input row: projecting the columns known up front through layer 0 for
// the whole window saves nothing against a SIMD step, and costs a
// window-sized buffer (DESIGN.md, "LSTM kernels").
//
// A batch down to one active lane — the usual case for a lone
// paper-scale request — would leave every other core idle, and its layers
// cannot overlap (layer 0 at step t+1 waits on the top layer at step t
// through the d_{t−1} feedback). A lane that carries Helpers therefore
// borrows one idle worker once it is alone and splits each layer's units
// with it (nn.Split); the helper goes back as soon as other work waits
// for a worker, and the lane re-recruits at a later step if one parks.
//
// Correctness contract: each lane's arithmetic — feature extraction,
// standardization, the closed-loop d_{t−1} feedback, and the de-
// standardized mu/sigma clamping — is the exact operation sequence of
// PredictWindows against that lane's own model. Batched results
// therefore equal unbatched results float-for-float regardless of batch
// composition or order — including across distinct checkpoints in one
// batch.

// feedbackCol is the index of the closed-loop d_{t−1} feature — the only
// input column not known before the unroll begins.
const feedbackCol = 3

// defaultLaneChunk is the streaming emission granularity, in windows,
// when a caller passes chunk <= 0 to the lane entry points.
const defaultLaneChunk = 64

// Shape is the co-batching compatibility key for cross-checkpoint lane
// batching: two models whose Shapes are equal can advance side by side in
// one lockstep batch (different weights are fine — that is the point).
// In/Hidden/Layers pin the compiled kernel architecture and Window pins
// the feature extraction cadence.
type Shape struct {
	In     int
	Hidden int
	Layers int
	Window sim.Time
}

// String renders the shape as a compact label, e.g. "in4_h96_l1_w100ms" —
// used as the metric label of the serving layer's per-shape
// batch-occupancy histogram.
func (s Shape) String() string {
	return fmt.Sprintf("in%d_h%d_l%d_w%s", s.In, s.Hidden, s.Layers, time.Duration(s.Window))
}

// Shape returns the model's co-batching key. The architecture part is
// read from the trained network itself (not the config), so it is the
// ground truth of what the compiled kernel will execute.
func (m *Model) Shape() Shape {
	in, hidden, layers := m.Net.Arch()
	return Shape{In: in, Hidden: hidden, Layers: layers, Window: m.Cfg.Window}
}

// ReplayLane is one member of a cross-checkpoint lane batch: a trained
// model replaying one send-side input trace.
type ReplayLane struct {
	Model *Model
	Input *trace.Trace
	// CT optionally carries the lane's cross-traffic estimate; ignored
	// unless the lane's model was trained with UseCrossTraffic.
	CT *trace.Series
	// Seed drives the lane's per-packet sampling (SimulateTraceLanes).
	Seed int64
	// Emit, when non-nil, streams the lane's closed-loop predictions
	// incrementally: it is called with each computed chunk of windows —
	// mu/sigma for windows [t0, t0+len(mu)) — every `chunk` lockstep
	// rounds and at the lane's end. The slices alias internal buffers and
	// are only valid during the call; copy to retain. Returning false
	// abandons the lane: its remaining windows are never computed, its
	// results come back nil, and no other lane is affected.
	Emit func(t0 int, mu, sigma []float64) bool
	// Helpers, when non-nil, lends the lane one idle worker while it is
	// its batch's only active lane (see the file comment). Offline
	// callers leave it nil and never recruit.
	Helpers Helpers
}

// Helpers is the worker pool a lone lane borrows a helper from;
// *par.Pool is one.
type Helpers interface {
	// TryGo runs fn on an idle worker and reports whether one took it;
	// it never waits.
	TryGo(fn func()) bool
	// Waiting reports how many jobs wait for a worker. A helper leaves
	// as soon as it is positive.
	Waiting() int
}

// PredictWindowsLanes runs the closed-loop window prediction of
// PredictWindows for several (model, trace) lanes at once, in lockstep.
// All lane models must be trained and share one Shape; mixing shapes
// panics rather than corrupting state. chunk sets the Emit granularity in
// windows (<= 0 selects a default; irrelevant when no lane has an Emit).
// The returned mu/sigma slices are per-lane and bitwise identical to
// calling lanes[i].Model.PredictWindows(lanes[i].Input, lanes[i].CT);
// a lane abandoned by its Emit returns nil slices instead.
func PredictWindowsLanes(lanes []ReplayLane, chunk int) (mus, sigmas [][]float64) {
	n := len(lanes)
	mus = make([][]float64, n)
	sigmas = make([][]float64, n)
	if n == 0 {
		return mus, sigmas
	}
	if chunk <= 0 {
		chunk = defaultLaneChunk
	}
	checkLaneShapes(lanes)

	// Per-lane setup, each against the lane's own model parameters:
	// feature extraction first.
	xss := make([][][]float64, n)
	maxT := 0
	for i := range lanes {
		m := lanes[i].Model
		var ctArg *trace.Series
		if m.Cfg.UseCrossTraffic {
			ctArg = lanes[i].CT
		}
		xs, _, _ := WindowFeatures(lanes[i].Input, ctArg, m.Cfg.Window)
		if m.Cfg.UseCrossTraffic && ctArg == nil {
			for t := range xs {
				xs[t] = append(xs[t], 0)
			}
		}
		xss[i] = xs
		if len(xs) > maxT {
			maxT = len(xs)
		}
	}
	ims := make([]*nn.InferModel, n)
	sts := make([]*nn.InferState, n)
	maxHead := 0
	for i := range lanes {
		ims[i] = lanes[i].Model.Net.Infer()
		sts[i] = ims[i].NewState()
		mus[i] = make([]float64, len(xss[i]))
		sigmas[i] = make([]float64, len(xss[i]))
		if o := lanes[i].Model.Net.Head.Out; o > maxHead {
			maxHead = o
		}
	}
	// One standardized input row per lane, refilled every step.
	d, _, _ := ims[0].Arch()
	slab := make([]float64, n*d)

	// Lockstep unroll. Lanes whose traces span fewer windows — or whose
	// Emit abandoned them — drop out of the active set; each lane's state
	// advances through exactly its own inputs on its own weights, so
	// membership never changes results.
	prevDelay := make([]float64, n)
	aborted := make([]bool, n)
	emitted := make([]int, n) // per lane: first window not yet streamed
	active := make([]int, 0, n)
	batchIms := make([]*nn.InferModel, 0, n)
	batchSts := make([]*nn.InferState, 0, n)
	batchRows := make([][]float64, 0, n)
	head := make([]float64, maxHead)
	var split *nn.Split // the last active lane's, once it has Helpers
	var tryGo func(func()) bool
	for t := 0; t < maxT; t++ {
		active = active[:0]
		batchIms = batchIms[:0]
		batchSts = batchSts[:0]
		batchRows = batchRows[:0]
		for i := range xss {
			if aborted[i] || t >= len(xss[i]) {
				continue
			}
			x := xss[i][t]
			if t > 0 {
				// Closed loop: the previous prediction replaces the
				// teacher-forced d_{t−1} feature (t=0 keeps the teacher
				// value), exactly as PredictWindows does.
				x[feedbackCol] = prevDelay[i]
			}
			r := slab[i*d : (i+1)*d]
			lanes[i].Model.xScale.applyInto(x, r)
			active = append(active, i)
			batchIms = append(batchIms, ims[i])
			batchSts = append(batchSts, sts[i])
			batchRows = append(batchRows, r)
		}
		if a := active; split == nil && len(a) == 1 && lanes[a[0]].Helpers != nil && ims[a[0]].Splits() {
			h := lanes[a[0]].Helpers
			split, tryGo = nn.NewSplit(func() bool { return h.Waiting() > 0 }), h.TryGo
		}
		if split != nil && len(active) == 1 && split.Recruit(tryGo) {
			split.StepInto(batchIms[0], batchSts[0], batchRows[0])
		} else {
			nn.StepBatchLanesInto(batchIms, batchSts, batchRows, nil, 0)
		}
		for k, i := range active {
			m := lanes[i].Model
			out := m.Net.HeadGaussian(batchSts[k].Top(), head[:m.Net.Head.Out])
			mu := out.Mu*m.yStd + m.yMean
			sg := out.Sigma * m.yStd
			if mu < 0 {
				mu = 0
			}
			mus[i][t] = mu
			sigmas[i][t] = sg
			prevDelay[i] = mu
			if lanes[i].Emit != nil && (t+1 == len(xss[i]) || (t+1)%chunk == 0) {
				lo := emitted[i]
				if lanes[i].Emit(lo, mus[i][lo:t+1], sigmas[i][lo:t+1]) {
					emitted[i] = t + 1
				} else {
					aborted[i] = true
					mus[i], sigmas[i] = nil, nil
				}
			}
		}
	}
	if split != nil {
		split.Release() // no helper outlives the unroll
		reg := obs.Get()
		reg.Counter("iboxml.split_halves").Add(int64(split.Halves))
		reg.Counter("iboxml.split_helped").Add(int64(split.Helped))
	}
	return mus, sigmas
}

// checkLaneShapes validates the batch: every lane model trained, one
// shared Shape.
func checkLaneShapes(lanes []ReplayLane) {
	for i := range lanes {
		if lanes[i].Model == nil || !lanes[i].Model.trained {
			panic("iboxml: model not trained")
		}
	}
	shape := lanes[0].Model.Shape()
	for i := range lanes {
		if s := lanes[i].Model.Shape(); s != shape {
			panic(fmt.Sprintf("iboxml: lane %d shape %s incompatible with %s — lanes must share one shape", i, s, shape))
		}
	}
}

// SimulateTraceLanes produces one predicted output trace per lane, with
// the closed-loop window predictions computed in one lockstep batch and
// the per-packet sampling done per lane from its own model and Seed.
// Outputs are bitwise identical to calling
// lanes[i].Model.SimulateTrace(lanes[i].Input, lanes[i].CT, lanes[i].Seed)
// one at a time; a lane abandoned by its Emit returns nil.
func SimulateTraceLanes(lanes []ReplayLane, chunk int) []*trace.Trace {
	mus, sigmas := PredictWindowsLanes(lanes, chunk)
	out := make([]*trace.Trace, len(lanes))
	for i := range lanes {
		if mus[i] == nil { // abandoned mid-unroll by its Emit
			continue
		}
		out[i] = lanes[i].Model.samplePackets(lanes[i].Input, mus[i], sigmas[i], lanes[i].Seed)
	}
	return out
}
