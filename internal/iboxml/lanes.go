package iboxml

import (
	"fmt"
	"time"

	"ibox/internal/nn"
	"ibox/internal/obs"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// The one iBoxML inference engine: a lane is one model's recurrent
// state, and lane.step is the only code that turns a raw feature row into
// a delay distribution (standardize, one kernel step, the Gaussian head,
// de-standardize, clamp mu at 0). Every consumer steps lanes: the
// closed-loop unroll below, the teacher-forced PredictWindowsOpenLoop,
// the per-packet PredictPacketDelay and the hierarchical predictor.
//
// Batched closed-loop inference unrolls several independent traces in
// lockstep, one window-step per member per round. Lanes need not share a
// checkpoint — each steps its own trained Model through its own packed
// weights — they only have to share a Shape: architecture plus
// windowing. This is the amortization behind cross-checkpoint request
// micro-batching in internal/serve: the per-call setup — feature
// extraction, lane states and scratch — is paid once per lane per call
// instead of once per request round-trip, and the lockstep loop itself is
// allocation-free.
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
// Correctness contract: a lane's arithmetic depends only on its own
// model and inputs, so its results are independent of batch composition
// and order — including across distinct checkpoints in one batch — and
// of whether a helper shared its steps. The package tests check them
// bitwise against refPredictWindows, a closed loop written out without
// lanes.

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

// lane is one model's inference state: the recurrent state, the
// standardized input row and the head's scratch, all reused every step.
type lane struct {
	m    *Model
	st   *nn.InferState
	row  []float64
	head []float64
}

// newLane returns a lane of m at zero state.
func (m *Model) newLane() lane {
	in, _, _ := m.Net.Arch()
	return lane{m: m, st: m.Net.LSTM.NewState(), row: make([]float64, in), head: make([]float64, m.Net.Head.Out)}
}

// step advances the lane one step on the raw feature row x and returns
// the step's predicted delay distribution in ms, mu clamped at 0. sp, when
// non-nil, shares the step with its helper (nn.Split). It performs no
// allocation.
func (l *lane) step(x []float64, sp *nn.Split) (mu, sigma float64) {
	m := l.m
	m.xScale.applyInto(x, l.row)
	out := m.Net.HeadGaussian(sp.StepInto(m.Net.LSTM, l.st, l.row), l.head)
	mu = out.Mu*m.yStd + m.yMean
	if mu < 0 {
		mu = 0
	}
	return mu, out.Sigma * m.yStd
}

// PredictWindowsLanes runs the closed-loop window prediction of
// PredictWindows for several (model, trace) lanes at once, in lockstep.
// All lane models must be trained and share one Shape; mixing shapes
// panics rather than corrupting state. chunk sets the Emit granularity in
// windows (<= 0 selects a default; irrelevant when no lane has an Emit).
// The returned mu/sigma slices are per-lane, bitwise independent of the
// batch's composition and order, and equal to the package tests'
// reference closed loop (refPredictWindows); a lane abandoned by its Emit
// returns nil slices instead.
func PredictWindowsLanes(lanes []ReplayLane, chunk int) (mus, sigmas [][]float64) {
	return predictWindowsLanes(lanes, chunk, inputDurations(lanes))
}

// inputDurations returns each lane's input trace duration, which the
// feature rows and the per-packet sampling of a lane both read.
func inputDurations(lanes []ReplayLane) []sim.Time {
	durs := make([]sim.Time, len(lanes))
	for i := range lanes {
		durs[i] = lanes[i].Input.Duration()
	}
	return durs
}

// predictWindowsLanes is PredictWindowsLanes given each lane's input
// duration.
func predictWindowsLanes(lanes []ReplayLane, chunk int, durs []sim.Time) (mus, sigmas [][]float64) {
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

	xss := make([][][]float64, n)
	ls := make([]lane, n)
	maxT := 0
	for i := range lanes {
		m := lanes[i].Model
		xss[i] = m.features(lanes[i].Input, lanes[i].CT, durs[i])
		ls[i] = m.newLane()
		mus[i] = make([]float64, len(xss[i]))
		sigmas[i] = make([]float64, len(xss[i]))
		maxT = max(maxT, len(xss[i]))
	}

	// Lockstep unroll. Lanes whose traces span fewer windows — or whose
	// Emit abandoned them (nil mus) — drop out of the active set.
	emitted := make([]int, n) // per lane: first window not yet streamed
	active := make([]int, 0, n)
	var split *nn.Split // the last active lane's, once it has Helpers
	var tryGo func(func()) bool
	for t := 0; t < maxT; t++ {
		active = active[:0]
		for i := range xss {
			if mus[i] != nil && t < len(xss[i]) {
				active = append(active, i)
			}
		}
		var sp *nn.Split
		if len(active) == 1 {
			i := active[0]
			if h := lanes[i].Helpers; split == nil && h != nil && lanes[i].Model.Net.LSTM.Splits() {
				split, tryGo = nn.NewSplit(func() bool { return h.Waiting() > 0 }), h.TryGo
			}
			if split != nil && split.Recruit(tryGo) {
				sp = split
			}
		}
		for _, i := range active {
			x := xss[i][t]
			if t > 0 {
				// Closed loop: the previous prediction replaces the
				// teacher-forced d_{t−1} feature; t=0 keeps the teacher
				// value.
				x[feedbackCol] = mus[i][t-1]
			}
			mus[i][t], sigmas[i][t] = ls[i].step(x, sp)
			if lanes[i].Emit != nil && (t+1 == len(xss[i]) || (t+1)%chunk == 0) {
				lo := emitted[i]
				if lanes[i].Emit(lo, mus[i][lo:t+1], sigmas[i][lo:t+1]) {
					emitted[i] = t + 1
				} else {
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
// A lane's output is independent of the batch: it is bitwise the trace
// refPredictWindows's mu and sigma sample to from the lane's Seed, as
// lanes[i].Model.SimulateTrace(lanes[i].Input, lanes[i].CT, lanes[i].Seed)
// gives one at a time; a lane abandoned by its Emit returns nil.
func SimulateTraceLanes(lanes []ReplayLane, chunk int) []*trace.Trace {
	durs := inputDurations(lanes)
	mus, sigmas := predictWindowsLanes(lanes, chunk, durs)
	out := make([]*trace.Trace, len(lanes))
	for i := range lanes {
		if mus[i] == nil { // abandoned mid-unroll by its Emit
			continue
		}
		in := lanes[i].Input
		out[i] = lanes[i].Model.samplePackets(in, durs[i], mus[i], sigmas[i], lanes[i].Seed, make([]trace.Packet, 0, len(in.Packets)))
	}
	return out
}
