package iboxml

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"ibox/internal/nn"
	"ibox/internal/obs"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// Config parameterizes the iBoxML delay model. Zero values select small
// CPU-friendly defaults (the paper used a 4-layer ≈2M-parameter LSTM on a
// V100; this reproduction trains pure-Go on CPU, so the defaults are
// modest — the architecture, loss and inference procedure are identical).
type Config struct {
	Hidden int      // LSTM hidden size; default 24
	Layers int      // LSTM layers; default 2
	Window sim.Time // feature window; default 100 ms
	// UseCrossTraffic appends the domain-knowledge cross-traffic estimate
	// (§3) as an input feature — the §5.2 melding that mitigates
	// control-loop bias.
	UseCrossTraffic bool
	Epochs          int     // training passes over the corpus; default 30
	LR              float64 // Adam learning rate; default 0.005
	// PrevDelayNoise perturbs the teacher-forced d_{t−1} feature during
	// training by Gaussian noise of this many target standard deviations.
	// Without it the model learns the shortcut d_t ≈ d_{t−1} and collapses
	// toward a fixed point when unrolled closed-loop (the exposure-bias
	// face of §4.2's control-loop problem). Default 0.3; negative disables.
	PrevDelayNoise float64
	Seed           int64
}

func (c Config) withDefaults() Config {
	if c.Hidden <= 0 {
		c.Hidden = 24
	}
	if c.Layers <= 0 {
		c.Layers = 2
	}
	if c.Window <= 0 {
		c.Window = 100 * sim.Millisecond
	}
	if c.Epochs <= 0 {
		c.Epochs = 30
	}
	if c.LR <= 0 {
		c.LR = 0.005
	}
	if c.PrevDelayNoise == 0 {
		c.PrevDelayNoise = 0.3
	}
	if c.PrevDelayNoise < 0 {
		c.PrevDelayNoise = 0
	}
	return c
}

// TrainDiag is the training-trajectory record Train leaves on the model:
// gradient norms (pre-clip global L2, one reading per optimizer step),
// the converged loss, and how many sequences were skipped for non-finite
// loss. It feeds the run report's fidelity section (see RecordFidelity).
type TrainDiag struct {
	Epochs        int
	FinalLoss     float64
	GradNormFirst float64
	GradNormLast  float64
	GradNormMax   float64
	NonFiniteSeqs int64
}

// ErrDiverged marks a training run aborted by the NaN/Inf guard: the loss
// or the parameters became non-finite, or the loss exploded past any
// plausible value. Callers match it with errors.Is; the wrapped message
// carries the epoch and the offending quantities.
var ErrDiverged = errors.New("iboxml: training diverged")

// lossDivergenceLimit is the mean-epoch-loss ceiling of the divergence
// guard. The Gaussian NLL on standardized targets is O(1–10) for any
// model that is even vaguely tracking the data; a mean loss beyond this
// means the head is predicting garbage (typically an exploding learning
// rate) and every further epoch would be wasted work.
const lossDivergenceLimit = 1e8

// Model is a trained iBoxML delay model.
type Model struct {
	Cfg Config
	Net *nn.SequenceModel
	// Diag records the training trajectory (gradient norms, final loss);
	// zero for deserialized models.
	Diag    TrainDiag
	xScale  scaler
	yMean   float64
	yStd    float64
	trained bool
	// outlierRate is the fraction of packets in the training traces that
	// arrived out of order — early arrivals whose delay dropped below the
	// neighbourhood's (e.g. a multipath shortcut). SimulateTrace samples
	// this fraction of packets from a low-delay outlier component; the
	// paper's per-packet LSTM absorbs the same information from the delay
	// stream itself ("the model was trained only to match delays and no
	// explicit knowledge of reordering was provided").
	outlierRate float64
	// minDelayMs is the training corpus' 5th-percentile window delay — the
	// near-propagation floor that outlier (queue-skipping) packets see.
	minDelayMs float64
	// env is the training feature envelope backing the §6 model-validity
	// analysis (see Validity).
	env envelope
	// baseline is the training-time calibration scorecard embedded in
	// the artifact (SetBaseline/Baseline); nil when never calibrated or
	// when the artifact predates baselines.
	baseline *Calibration
}

// TrainingSample pairs a trace with its (optional) cross-traffic estimate.
type TrainingSample struct {
	Trace *trace.Trace
	CT    *trace.Series // used only when Config.UseCrossTraffic
}

// Train fits an iBoxML model on the given traces. When cfg.UseCrossTraffic
// is set, each sample's CT series is appended as an input feature (samples
// with a nil CT use zeros).
func Train(samples []TrainingSample, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if len(samples) == 0 {
		return nil, fmt.Errorf("iboxml: no training samples")
	}
	dim := 4
	if cfg.UseCrossTraffic {
		dim = 5
	}

	type seq struct {
		xs   [][]float64
		ys   []float64
		mask []bool
	}
	var seqs []seq
	var allX [][]float64
	var allY []float64
	for _, s := range samples {
		ct := s.CT
		if !cfg.UseCrossTraffic {
			ct = nil
		}
		xs, ys, mask := WindowFeatures(s.Trace, ct, cfg.Window)
		if len(xs) == 0 {
			continue
		}
		if cfg.UseCrossTraffic && s.CT == nil {
			// WindowFeatures returned 4-dim rows; widen with a zero column.
			// Each widened row is a fresh copy: append on a full-capacity
			// slice usually reallocates, but that is an implementation
			// detail — an explicit copy guarantees the rows shared between
			// seqs and allX below can never alias a partially-mutated
			// buffer when scaler fitting reads them.
			for i := range xs {
				row := make([]float64, len(xs[i])+1)
				copy(row, xs[i])
				xs[i] = row
			}
		}
		seqs = append(seqs, seq{xs, ys, mask})
		allX = append(allX, xs...)
		for i, m := range mask {
			if m {
				allY = append(allY, ys[i])
			}
		}
	}
	if len(seqs) == 0 || len(allY) == 0 {
		return nil, fmt.Errorf("iboxml: training data contains no delivered packets")
	}

	m := &Model{Cfg: cfg}
	m.xScale = fitScaler(allX)
	m.env = fitEnvelope(allX)
	m.yMean = mean(allY)
	m.yStd = std(allY, m.yMean)
	if m.yStd == 0 {
		m.yStd = 1
	}
	// Delay-structure statistics for per-packet sampling (SimulateTrace).
	reordered, delivered := 0, 0
	for _, s := range samples {
		flags := s.Trace.ReorderedFlags()
		for _, f := range flags {
			if f {
				reordered++
			}
		}
		delivered += len(flags)
	}
	if delivered > 0 {
		m.outlierRate = float64(reordered) / float64(delivered)
	}
	sortedY := append([]float64(nil), allY...)
	sortFloats(sortedY)
	m.minDelayMs = sortedY[len(sortedY)/20]
	m.Net = nn.NewSequenceModel(nn.GaussianHead, dim, cfg.Hidden, cfg.Layers, cfg.Seed)
	opt := nn.NewAdam(cfg.LR, m.Net.Params())

	// Per-epoch training telemetry: mean sequence loss (gauge; the last
	// value is the converged loss), gradient norm and epoch wall time. All
	// handles are nil no-ops when observability is disabled, and nothing
	// recorded here feeds back into training, so enabling the layer cannot
	// perturb the learnt weights. The NaN/Inf divergence guard below, by
	// contrast, is always on: it reads only quantities training computes
	// anyway, so it is identical with observability on or off.
	reg := obs.Get()
	lossGauge := reg.Gauge("iboxml.epoch_loss")
	gradGauge := reg.Gauge("iboxml.grad_norm")
	epochHist := reg.Histogram("iboxml.epoch_ns")
	epochs := reg.Counter("iboxml.epochs")
	reg.Counter("iboxml.trainings").Add(1)
	logger := obs.Logger()

	noiseRng := sim.NewRand(cfg.Seed, 313)
	firstStep := true
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var epochStart time.Time
		if epochHist != nil || logger != nil {
			epochStart = time.Now()
		}
		lossSum, lossN := 0.0, 0
		for _, s := range seqs {
			xs := make([][]float64, len(s.xs))
			ys := make([]float64, len(s.ys))
			for t := range s.xs {
				xs[t] = m.xScale.apply(s.xs[t])
				ys[t] = (s.ys[t] - m.yMean) / m.yStd
				if cfg.PrevDelayNoise > 0 {
					// Perturb the (standardized) teacher-forced d_{t−1} so
					// the model cannot rely on it exclusively.
					xs[t][3] += cfg.PrevDelayNoise * noiseRng.NormFloat64()
				}
			}
			loss := m.Net.TrainSequence(xs, ys, s.mask)
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				m.Diag.NonFiniteSeqs++
				continue
			}
			lossSum += loss
			lossN++
			gn := opt.Step()
			if firstStep {
				m.Diag.GradNormFirst = gn
				firstStep = false
			}
			m.Diag.GradNormLast = gn
			if gn > m.Diag.GradNormMax {
				m.Diag.GradNormMax = gn
			}
		}
		// NaN/Inf guard: abort with a diagnostic instead of grinding out a
		// poisoned model. Three trips: every sequence's loss non-finite,
		// the mean loss non-finite or exploded, or the weights themselves
		// no longer finite.
		if lossN == 0 {
			return nil, fmt.Errorf("%w: all %d sequence losses non-finite at epoch %d/%d (grad norm %.3g); lower the learning rate (lr=%g) or check the training data",
				ErrDiverged, len(seqs), epoch+1, cfg.Epochs, m.Diag.GradNormLast, cfg.LR)
		}
		meanLoss := lossSum / float64(lossN)
		if math.IsNaN(meanLoss) || math.IsInf(meanLoss, 0) || meanLoss > lossDivergenceLimit {
			return nil, fmt.Errorf("%w: mean loss %.3g at epoch %d/%d (grad norm %.3g, %d/%d sequences non-finite); lower the learning rate (lr=%g)",
				ErrDiverged, meanLoss, epoch+1, cfg.Epochs, m.Diag.GradNormLast, len(seqs)-lossN, len(seqs), cfg.LR)
		}
		if !paramsFinite(m.Net.Params()) {
			return nil, fmt.Errorf("%w: non-finite parameters after epoch %d/%d (mean loss %.3g, grad norm %.3g); lower the learning rate (lr=%g)",
				ErrDiverged, epoch+1, cfg.Epochs, meanLoss, m.Diag.GradNormLast, cfg.LR)
		}
		m.Diag.Epochs = epoch + 1
		m.Diag.FinalLoss = meanLoss
		if epochHist != nil {
			epochHist.ObserveSince(epochStart)
			epochs.Add(1)
			lossGauge.Set(meanLoss)
			gradGauge.Set(m.Diag.GradNormLast)
		}
		if logger != nil {
			logger.Debug("iboxml epoch",
				"epoch", epoch+1, "epochs", cfg.Epochs,
				"loss", meanLoss, "grad_norm", m.Diag.GradNormLast,
				"ms", float64(time.Since(epochStart).Microseconds())/1e3)
		}
	}
	m.trained = true
	if logger != nil {
		logger.Info("iboxml trained",
			"epochs", m.Diag.Epochs, "loss", m.Diag.FinalLoss,
			"grad_norm_max", m.Diag.GradNormMax, "params", m.NumParams(),
			"sequences", len(seqs), "non_finite_seqs", m.Diag.NonFiniteSeqs)
	}
	return m, nil
}

// paramsFinite reports whether every scalar parameter is finite.
func paramsFinite(params []*nn.Param) bool {
	for _, p := range params {
		for _, w := range p.W {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return false
			}
		}
	}
	return true
}

// NumParams reports the scalar parameter count of the underlying network.
func (m *Model) NumParams() int { return m.Net.NumParams() }

// PredictWindows replays a test trace's sending-rate timeline through the
// model closed-loop (§4.1: "we feed the predicted delays as we unroll the
// LSTM network over time") and returns the predicted per-window delay
// means and standard deviations in milliseconds. ct may be nil.
func (m *Model) PredictWindows(tr *trace.Trace, ct *trace.Series) (mu, sigma []float64) {
	if !m.trained {
		panic("iboxml: model not trained")
	}
	useCT := m.Cfg.UseCrossTraffic
	var ctArg *trace.Series
	if useCT {
		ctArg = ct
	}
	xs, _, _ := WindowFeatures(tr, ctArg, m.Cfg.Window)
	if useCT && ctArg == nil {
		for i := range xs {
			xs[i] = append(xs[i], 0)
		}
	}
	pred := m.Net.NewPredictor()
	mu = make([]float64, len(xs))
	sigma = make([]float64, len(xs))
	var row []float64
	if len(xs) > 0 {
		row = make([]float64, len(xs[0]))
	}
	prevDelay := 0.0
	first := true
	for t := range xs {
		// Closed loop: overwrite the teacher-forced d_{t−1} feature with
		// the model's own previous prediction.
		if !first {
			xs[t][3] = prevDelay
		}
		m.xScale.applyInto(xs[t], row)
		out := pred.StepGaussian(row)
		mu[t] = out.Mu*m.yStd + m.yMean
		sigma[t] = out.Sigma * m.yStd
		if mu[t] < 0 {
			mu[t] = 0
		}
		prevDelay = mu[t]
		if first {
			// The t=0 feature used the teacher value; subsequent steps are
			// fully closed-loop.
			first = false
		}
	}
	return mu, sigma
}

// SimulateTrace produces a full predicted output trace for the given input
// (send-side) timeline, turning the per-window closed-loop delay
// distributions into per-packet delays with realistic temporal structure:
//
//   - a smooth component — the window mean plus an AR(1) (Ornstein–
//     Uhlenbeck) deviation with a multi-window correlation time, because a
//     queue's delay evolves smoothly and i.i.d. per-packet sampling would
//     invert nearly half of all packet pairs;
//   - an outlier component — with the training corpus' observed early-
//     arrival rate, a packet's delay collapses toward the near-propagation
//     floor, recreating queue-skipping (multipath) arrivals. This is how
//     reordering emerges from a model "trained only to match delays"
//     (Fig 5).
//
// Lost packets in the input are echoed as lost.
func (m *Model) SimulateTrace(tr *trace.Trace, ct *trace.Series, seed int64) *trace.Trace {
	mu, sigma := m.PredictWindows(tr, ct)
	return m.samplePackets(tr, mu, sigma, seed)
}

// samplePackets turns per-window closed-loop delay distributions into the
// per-packet output trace (the sampling half of SimulateTrace). It is
// shared between the single-trace path and SimulateTraceLanes so both
// produce identical bytes for identical (mu, sigma, seed).
func (m *Model) samplePackets(tr *trace.Trace, mu, sigma []float64, seed int64) *trace.Trace {
	rng := sim.NewRand(seed, 71)
	out := &trace.Trace{Protocol: tr.Protocol + "-iboxml", PathID: tr.PathID}
	if len(tr.Packets) == 0 {
		return out
	}
	// jitterFrac scales the predicted window sigma down to a per-packet
	// jitter magnitude. The amplitude is additionally capped at a few send
	// gaps: a FIFO queue's jitter cannot reorder packets, so the smooth
	// component must (almost) never invert arrivals — reordering is the
	// outlier component's job.
	const jitterFrac = 0.15
	start := tr.Packets[0].SendTime
	meanGapMs := tr.Duration().Millis() / float64(len(tr.Packets))
	tau := 3 * m.Cfg.Window.Seconds() // OU correlation time, seconds
	z := 0.0                          // standardized smooth-deviation state
	var lastSend sim.Time = -1
	for _, p := range tr.Packets {
		w := int((p.SendTime - start) / m.Cfg.Window)
		if w < 0 {
			w = 0
		}
		if w >= len(mu) {
			w = len(mu) - 1
		}
		q := p
		if !p.Lost {
			dt := 0.0
			if lastSend >= 0 {
				dt = (p.SendTime - lastSend).Seconds()
			}
			lastSend = p.SendTime
			rho := math.Exp(-dt / tau)
			z = rho*z + math.Sqrt(1-rho*rho)*rng.NormFloat64()
			var d float64
			if rng.Float64() < m.outlierRate {
				// Queue-skipping outlier: near the propagation floor.
				d = m.minDelayMs * (1 + 0.1*math.Abs(rng.NormFloat64()))
			} else {
				// The head's sigma is the *window-aggregate* uncertainty;
				// per-packet jitter around the smooth queue trajectory is a
				// small fraction of it, capped at a few send gaps.
				amp := jitterFrac * sigma[w]
				if cap := 3 * meanGapMs; amp > cap {
					amp = cap
				}
				d = mu[w] + amp*z
			}
			if d < 0.1 {
				d = 0.1
			}
			q.RecvTime = p.SendTime + sim.Time(d*float64(sim.Millisecond))
		}
		out.Packets = append(out.Packets, q)
	}
	return out
}

// PredictWindowsOpenLoop predicts per-window delays with the true previous
// delay (teacher forcing) rather than the model's own feedback. It
// measures one-step-ahead accuracy, isolating model quality from the
// closed-loop compounding of §4.1's unrolling; the trace must contain
// receive timestamps.
func (m *Model) PredictWindowsOpenLoop(tr *trace.Trace, ct *trace.Series) (mu, sigma []float64) {
	if !m.trained {
		panic("iboxml: model not trained")
	}
	var ctArg *trace.Series
	if m.Cfg.UseCrossTraffic {
		ctArg = ct
	}
	xs, _, _ := WindowFeatures(tr, ctArg, m.Cfg.Window)
	if m.Cfg.UseCrossTraffic && ctArg == nil {
		for i := range xs {
			xs[i] = append(xs[i], 0)
		}
	}
	// Teacher forcing means the whole window is known up front, so the
	// input projections run as one blocked pass per layer instead of per
	// step (InferModel.Forward) — bitwise-identical to stepping.
	rows := make([][]float64, len(xs))
	for t := range xs {
		rows[t] = m.xScale.apply(xs[t])
	}
	outs := m.Net.PredictSequence(rows)
	mu = make([]float64, len(xs))
	sigma = make([]float64, len(xs))
	for t, out := range outs {
		mu[t] = out.Mu*m.yStd + m.yMean
		sigma[t] = out.Sigma * m.yStd
		if mu[t] < 0 {
			mu[t] = 0
		}
	}
	return mu, sigma
}

// PredictPacketDelay is the per-packet inference mode used by the §4.2
// speed analysis: one LSTM step per packet. The returned function advances
// the model one packet at a time and reports the predicted delay (ms).
// The closure performs no per-call allocation — all scratch (input
// buffers, kernel state) is owned by the closure and reused.
func (m *Model) PredictPacketDelay() func(features []float64) float64 {
	pred := m.Net.NewPredictor()
	dim := 4
	if m.Cfg.UseCrossTraffic {
		dim = 5
	}
	buf := make([]float64, dim)
	row := make([]float64, dim)
	return func(features []float64) float64 {
		copy(buf, features)
		m.xScale.applyInto(buf, row)
		out := pred.StepGaussian(row)
		return out.Mu*m.yStd + m.yMean
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func std(xs []float64, m float64) float64 {
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

func sortFloats(xs []float64) {
	sort.Float64s(xs)
}
