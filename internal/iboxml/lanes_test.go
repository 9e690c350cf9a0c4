package iboxml

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"ibox/internal/par"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// laneModel trains a small model of the given architecture; distinct
// seeds give genuinely different weights for one shape.
func laneModel(t testing.TB, hidden, layers int, seed int64) *Model {
	t.Helper()
	m, err := Train(trainSamples(2, 3*sim.Second), Config{
		Hidden: hidden, Layers: layers, Epochs: 1, Seed: seed,
	})
	if err != nil {
		t.Fatalf("train h%d l%d: %v", hidden, layers, err)
	}
	return m
}

// TestSimulateTraceLanesMixedCheckpoints is the cross-checkpoint
// equivalence harness: three checkpoints with different weights but one
// shape replay different traces in a single lane batch, across odd
// hidden sizes and 1–4 layers, and every lane's output must serialize to
// exactly the bytes of its own unbatched SimulateTrace.
func TestSimulateTraceLanesMixedCheckpoints(t *testing.T) {
	shapes := []struct{ hidden, layers int }{
		{5, 1}, {7, 2}, {9, 3}, {11, 4},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(fmt.Sprintf("h%d_l%d", sh.hidden, sh.layers), func(t *testing.T) {
			lanes := []ReplayLane{
				{Model: laneModel(t, sh.hidden, sh.layers, 5), Input: synthTrace(61, 2*sim.Second), Seed: 301},
				{Model: laneModel(t, sh.hidden, sh.layers, 6), Input: synthTrace(62, 500*sim.Millisecond), Seed: 302},
				{Model: laneModel(t, sh.hidden, sh.layers, 7), Input: synthTrace(63, 3*sim.Second), Seed: 303},
			}
			outs := SimulateTraceLanes(lanes, 0)
			for i := range lanes {
				want := lanes[i].Model.SimulateTrace(lanes[i].Input, nil, lanes[i].Seed)
				if !bytes.Equal(encodeTrace(t, want), encodeTrace(t, outs[i])) {
					t.Fatalf("lane %d: cross-checkpoint batched simulation differs from unbatched", i)
				}
			}
		})
	}
}

// countingHelpers is a pool that counts the helpers it lends.
type countingHelpers struct {
	*par.Pool
	lent atomic.Int64
}

func (h *countingHelpers) TryGo(fn func()) bool {
	if !h.Pool.TryGo(fn) {
		return false
	}
	h.lent.Add(1)
	return true
}

// TestLaneHelperMatchesUnhelped: lanes that may borrow a pool worker once
// alone — the batch drains to its longest lane, which then splits each
// layer's units with the helper — serialize to exactly the bytes of the
// same batch without Helpers, on shapes that split (Hidden ≥ 8); a
// narrower shape borrows nothing.
func TestLaneHelperMatchesUnhelped(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Close()
	for _, sh := range []struct{ hidden, layers int }{{16, 2}, {13, 1}, {6, 2}} {
		t.Run(fmt.Sprintf("h%d_l%d", sh.hidden, sh.layers), func(t *testing.T) {
			h := &countingHelpers{Pool: pool}
			var plain, helped []ReplayLane
			for i, d := range []sim.Time{2 * sim.Second, 500 * sim.Millisecond, 6 * sim.Second} {
				l := ReplayLane{Model: laneModel(t, sh.hidden, sh.layers, int64(5+i)), Input: synthTrace(int64(71+i), d), Seed: int64(401 + i)}
				plain = append(plain, l)
				l.Helpers = h
				helped = append(helped, l)
			}
			want, got := SimulateTraceLanes(plain, 0), SimulateTraceLanes(helped, 0)
			for i := range want {
				if !bytes.Equal(encodeTrace(t, want[i]), encodeTrace(t, got[i])) {
					t.Fatalf("lane %d: helped replay differs from unhelped", i)
				}
			}
			// The pool's one worker is idle for the whole unroll, so the
			// last lane finds it (a lane re-offers every round).
			if splits := sh.hidden >= 8; splits != (h.lent.Load() > 0) {
				t.Fatalf("lane lent %d helpers; want some: %v", h.lent.Load(), splits)
			}
		})
	}
}

// encodeTrace renders a trace as the serving layer would put it on the
// wire.
func encodeTrace(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(tr); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// refPredictWindows is the reference closed-loop unroll (§4.1) the lane
// engine is checked against, written out without lane: per window,
// standardize, InferModel.StepInto, HeadGaussian, de-standardize, clamp
// mu at 0, and feed mu back as the next window's d_{t−1}.
func refPredictWindows(m *Model, tr *trace.Trace, ct *trace.Series) (mu, sigma []float64) {
	xs := m.features(tr, ct, tr.Duration())
	im := m.Net.LSTM
	st := im.NewState()
	head := make([]float64, m.Net.Head.Out)
	mu = make([]float64, len(xs))
	sigma = make([]float64, len(xs))
	for t, x := range xs {
		if t > 0 {
			x[feedbackCol] = mu[t-1]
		}
		out := m.Net.HeadGaussian(im.StepInto(st, m.xScale.apply(x)), head)
		mu[t] = out.Mu*m.yStd + m.yMean
		if mu[t] < 0 {
			mu[t] = 0
		}
		sigma[t] = out.Sigma * m.yStd
	}
	return mu, sigma
}

// sameWindows fails unless two window predictions are bitwise identical.
func sameWindows(t *testing.T, what string, mu, sigma, wantMu, wantSigma []float64) {
	t.Helper()
	if len(mu) != len(wantMu) {
		t.Fatalf("%s: %d windows, reference %d", what, len(mu), len(wantMu))
	}
	for w := range wantMu {
		if math.Float64bits(mu[w]) != math.Float64bits(wantMu[w]) ||
			math.Float64bits(sigma[w]) != math.Float64bits(wantSigma[w]) {
			t.Fatalf("%s window %d: (%v,%v) != reference (%v,%v)",
				what, w, mu[w], sigma[w], wantMu[w], wantSigma[w])
		}
	}
}

// sharedLanesMatchSingle replays trs as lanes that all run through m —
// N clients of one checkpoint — and fails unless every lane, and
// per-trace PredictWindows, is bitwise identical to refPredictWindows.
func sharedLanesMatchSingle(t *testing.T, m *Model, trs []*trace.Trace) {
	t.Helper()
	lanes := make([]ReplayLane, len(trs))
	for i := range lanes {
		lanes[i] = ReplayLane{Model: m, Input: trs[i]}
	}
	mus, sigmas := PredictWindowsLanes(lanes, 0)
	for i := range lanes {
		wantMu, wantSigma := refPredictWindows(m, trs[i], nil)
		sameWindows(t, fmt.Sprintf("lane %d", i), mus[i], sigmas[i], wantMu, wantSigma)
		mu, sigma := m.PredictWindows(trs[i], nil)
		sameWindows(t, fmt.Sprintf("trace %d alone", i), mu, sigma, wantMu, wantSigma)
	}
}

// TestPredictWindowsBatchMatchesSingle: a lane batch over one shared
// model is bitwise identical to the reference unroll, including when
// lanes span different window counts (shorter traces drop out of the
// active set mid-unroll).
func TestPredictWindowsBatchMatchesSingle(t *testing.T) {
	sharedLanesMatchSingle(t, laneModel(t, 8, 1, 5), []*trace.Trace{
		synthTrace(11, 3*sim.Second),
		synthTrace(12, 1*sim.Second), // shorter: exits the active set early
		synthTrace(13, 2*sim.Second),
		synthTrace(14, 3*sim.Second),
		synthTrace(15, 500*sim.Millisecond),
	})
}

// TestPredictWindowsBatchSingleton checks a batch of one lane (what the
// serving batcher degenerates to under light load).
func TestPredictWindowsBatchSingleton(t *testing.T) {
	sharedLanesMatchSingle(t, laneModel(t, 8, 1, 5), []*trace.Trace{
		synthTrace(31, 2*sim.Second),
	})
}

// TestSimulateTraceLanesMatchesSingle checks the full serving-path
// contract for one shared model: lane-batched simulation serializes to
// the same bytes as the reference unroll's windows sampled per trace.
func TestSimulateTraceLanesMatchesSingle(t *testing.T) {
	m := laneModel(t, 8, 1, 5)
	lanes := []ReplayLane{
		{Model: m, Input: synthTrace(21, 2*sim.Second), Seed: 101},
		{Model: m, Input: synthTrace(22, 1*sim.Second), Seed: 102},
		{Model: m, Input: synthTrace(23, 2*sim.Second), Seed: 103},
		{Model: m, Input: synthTrace(24, 3*sim.Second), Seed: 104},
	}
	outs := SimulateTraceLanes(lanes, 0)
	for i, l := range lanes {
		mu, sigma := refPredictWindows(m, l.Input, nil)
		if !bytes.Equal(encodeTrace(t, outs[i]), encodeTrace(t, m.samplePackets(l.Input, l.Input.Duration(), mu, sigma, l.Seed, nil))) {
			t.Fatalf("trace %d: lane-batched simulation differs from unbatched", i)
		}
	}
}

// TestPredictWindowsLanesEmit pins the streaming contract: chunks arrive
// in order with contiguous t0 ranges, their concatenation is bitwise the
// full unbatched prediction, and a lane whose Emit returns false is
// abandoned (nil results) without perturbing any other lane.
func TestPredictWindowsLanesEmit(t *testing.T) {
	mA := laneModel(t, 5, 1, 5)
	mB := laneModel(t, 5, 1, 6)
	trA := synthTrace(71, 2*sim.Second)
	trB := synthTrace(72, 2*sim.Second)

	type chunk struct {
		t0        int
		mu, sigma []float64
	}
	var got []chunk
	collect := func(t0 int, mu, sigma []float64) bool {
		// The slices alias lane buffers and are only valid during the
		// call — the contract says copy to retain.
		got = append(got, chunk{t0, append([]float64(nil), mu...), append([]float64(nil), sigma...)})
		return true
	}
	abortAfterFirst := 0
	lanes := []ReplayLane{
		{Model: mA, Input: trA, Emit: collect},
		{Model: mB, Input: trB, Emit: func(t0 int, mu, sigma []float64) bool {
			abortAfterFirst++
			return abortAfterFirst == 1 // accept one chunk, then hang up
		}},
	}
	const chunkWin = 3
	mus, sigmas := PredictWindowsLanes(lanes, chunkWin)

	// Lane B was abandoned mid-unroll.
	if mus[1] != nil || sigmas[1] != nil {
		t.Fatalf("abandoned lane returned results: %v", mus[1])
	}
	if abortAfterFirst != 2 {
		t.Fatalf("abandoned lane's Emit called %d times, want 2", abortAfterFirst)
	}

	// Lane A's chunks: ordered, contiguous, chunk-sized except the tail,
	// and bitwise equal to the unbatched prediction.
	wantMu, wantSigma := mA.PredictWindows(trA, nil)
	next := 0
	var allMu, allSigma []float64
	for i, c := range got {
		if c.t0 != next {
			t.Fatalf("chunk %d starts at %d, want %d (monotonic, contiguous)", i, c.t0, next)
		}
		if i < len(got)-1 && len(c.mu) != chunkWin {
			t.Fatalf("chunk %d has %d windows, want %d", i, len(c.mu), chunkWin)
		}
		next += len(c.mu)
		allMu = append(allMu, c.mu...)
		allSigma = append(allSigma, c.sigma...)
	}
	if len(allMu) != len(wantMu) {
		t.Fatalf("streamed %d windows, want %d", len(allMu), len(wantMu))
	}
	for w := range wantMu {
		if math.Float64bits(allMu[w]) != math.Float64bits(wantMu[w]) ||
			math.Float64bits(allSigma[w]) != math.Float64bits(wantSigma[w]) {
			t.Fatalf("window %d: streamed (%v,%v) != unbatched (%v,%v)",
				w, allMu[w], allSigma[w], wantMu[w], wantSigma[w])
		}
	}
	// The surviving lane's returned slices must also match.
	for w := range wantMu {
		if math.Float64bits(mus[0][w]) != math.Float64bits(wantMu[w]) {
			t.Fatalf("returned window %d differs from unbatched", w)
		}
	}
}

// TestLanesShapeMismatchPanics: incompatible models — different
// architecture or different window — must never co-batch; the lane entry
// point panics instead of corrupting state.
func TestLanesShapeMismatchPanics(t *testing.T) {
	base := laneModel(t, 5, 1, 5)
	tr := synthTrace(81, sim.Second)
	mustPanic := func(name string, other *Model) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: lanes over incompatible shapes did not panic", name)
			}
			if !strings.Contains(fmt.Sprint(r), "shape") {
				t.Fatalf("%s: unexpected panic %v", name, r)
			}
		}()
		PredictWindowsLanes([]ReplayLane{
			{Model: base, Input: tr},
			{Model: other, Input: tr},
		}, 0)
	}
	mustPanic("hidden", laneModel(t, 7, 1, 5))
	mustPanic("layers", laneModel(t, 5, 2, 5))

	window, err := Train(trainSamples(2, 3*sim.Second), Config{
		Hidden: 5, Layers: 1, Epochs: 1, Seed: 5, Window: 50 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic("window", window)
}

// TestShapeString pins the metric-label form of the co-batching key.
func TestShapeString(t *testing.T) {
	m := laneModel(t, 5, 1, 5)
	if got, want := m.Shape().String(), "in4_h5_l1_w100ms"; got != want {
		t.Fatalf("Shape.String() = %q, want %q", got, want)
	}
}

// BenchmarkPredictWindowsLanes times one lockstep replay call at the
// small-request shape: a 96×1 model, 40 windows per lane, 1 and 8 lanes
// of one checkpoint. Run it with -benchmem: per-call allocation is most
// of a small replay request's garbage.
func BenchmarkPredictWindowsLanes(b *testing.B) {
	m := laneModel(b, 96, 1, 5)
	tr := synthTrace(41, 4*sim.Second)
	if mu, _ := m.PredictWindows(tr, nil); len(mu) != 40 {
		b.Fatalf("%d windows, want 40", len(mu))
	}
	for _, n := range []int{1, 8} {
		lanes := make([]ReplayLane, n)
		for i := range lanes {
			lanes[i] = ReplayLane{Model: m, Input: tr}
		}
		b.Run(fmt.Sprintf("lanes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PredictWindowsLanes(lanes, 0)
			}
		})
	}
}
