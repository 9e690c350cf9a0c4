package iboxml

import (
	"fmt"

	"ibox/internal/nn"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// Fig 6's output is "delay (or packet loss indicator)": the state-space
// formulation covers loss as well as delay (§2 treats loss as infinite
// delay). LossModel is the loss half — an LSTM with a Bernoulli head
// predicting each window's packet-loss probability from the same
// send-side features, trained with per-window loss fractions as soft
// labels. Combined with the delay Model via SimulateTraceWithLoss, the
// pair realizes the complete Fig 6 output.
type LossModel struct {
	Cfg     Config
	Net     *nn.SequenceModel
	xScale  scaler
	trained bool
}

// TrainLoss fits a loss model on the given traces.
func TrainLoss(samples []TrainingSample, cfg Config) (*LossModel, error) {
	cfg = cfg.withDefaults()
	if len(samples) == 0 {
		return nil, fmt.Errorf("iboxml: no training samples")
	}
	dim := 4
	if cfg.UseCrossTraffic {
		dim = 5
	}
	type seq struct {
		xs [][]float64
		ys []float64
	}
	var seqs []seq
	var allX [][]float64
	for _, s := range samples {
		ct := s.CT
		if !cfg.UseCrossTraffic {
			ct = nil
		}
		xs, _, _ := WindowFeatures(s.Trace, ct, cfg.Window)
		if len(xs) == 0 {
			continue
		}
		if cfg.UseCrossTraffic && s.CT == nil {
			for i := range xs {
				xs[i] = append(xs[i], 0)
			}
		}
		ys := windowLossFractions(s.Trace, cfg.Window, len(xs))
		seqs = append(seqs, seq{xs, ys})
		allX = append(allX, xs...)
	}
	if len(seqs) == 0 {
		return nil, fmt.Errorf("iboxml: loss training data empty")
	}
	m := &LossModel{Cfg: cfg, xScale: fitScaler(allX)}
	m.Net = nn.NewSequenceModel(nn.BinaryHead, dim, cfg.Hidden, cfg.Layers, cfg.Seed+5000)
	opt := nn.NewAdam(cfg.LR, m.Net.Params())
	var xbuf rowBuf
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, s := range seqs {
			m.Net.TrainSequence(xbuf.fill(m.xScale, s.xs), s.ys, nil)
			opt.Step()
		}
	}
	m.trained = true
	return m, nil
}

// windowLossFractions computes the per-window fraction of sent packets
// that were lost.
func windowLossFractions(tr *trace.Trace, window sim.Time, n int) []float64 {
	out := make([]float64, n)
	counts := make([]int, n)
	if len(tr.Packets) == 0 {
		return out
	}
	start := tr.Packets[0].SendTime
	for _, p := range tr.Packets {
		w := int((p.SendTime - start) / window)
		if w < 0 {
			w = 0
		}
		if w >= n {
			w = n - 1
		}
		counts[w]++
		if p.Lost {
			out[w]++
		}
	}
	for w := range out {
		if counts[w] > 0 {
			out[w] /= float64(counts[w])
		}
	}
	return out
}

// PredictWindows returns the per-window loss probability for a test
// trace. The trace must carry delay information in its receive timestamps
// — either observed (teacher-forced evaluation) or predicted by the delay
// model (closed-loop simulation, as SimulateTraceWithLoss arranges) —
// because the prev-delay input feature is read from it. ct may be nil.
func (m *LossModel) PredictWindows(tr *trace.Trace, ct *trace.Series) []float64 {
	if !m.trained {
		panic("iboxml: loss model not trained")
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
	pred := m.Net.NewPredictor()
	out := make([]float64, len(xs))
	for t := range xs {
		out[t] = pred.StepProb(m.xScale.apply(xs[t]))
	}
	return out
}

// SimulateTraceWithLoss runs the delay model's trace simulation and then
// applies this loss model: each delivered packet is dropped with its
// window's predicted loss probability — the full "delay/loss" output of
// Fig 6.
func (m *LossModel) SimulateTraceWithLoss(delay *Model, tr *trace.Trace, ct *trace.Series, seed int64) *trace.Trace {
	out := delay.SimulateTrace(tr, ct, seed)
	// Loss is conditioned on the *predicted* delays (closed loop): the
	// delay-simulated trace keeps the prev-delay feature in-distribution
	// even when tr carries no real receive timestamps.
	probs := m.PredictWindows(out, ct)
	if len(out.Packets) == 0 || len(probs) == 0 {
		return out
	}
	rng := sim.NewRand(seed, 97)
	start := out.Packets[0].SendTime
	for i := range out.Packets {
		p := &out.Packets[i]
		if p.Lost {
			continue
		}
		w := int((p.SendTime - start) / m.Cfg.Window)
		if w < 0 {
			w = 0
		}
		if w >= len(probs) {
			w = len(probs) - 1
		}
		if rng.Float64() < probs[w] {
			p.Lost = true
			p.RecvTime = 0
		}
	}
	return out
}
