package iboxml

import (
	"fmt"

	"ibox/internal/nn"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// ReorderPredictor predicts, per packet, the probability that the packet
// is reordered (arrives before an earlier-sequenced packet). It is the ML
// augmentation of §5.1 that grafts discovered behaviours onto the iBoxNet
// simulator's output.
type ReorderPredictor interface {
	// Probs returns the per-packet reordering probability for a trace's
	// send-side features. ct may be nil.
	Probs(tr *trace.Trace, ct *trace.Series) []float64
	// Name identifies the predictor ("lstm" or "linear").
	Name() string
}

// reorderSample is one trace's packet features and labels.
func reorderSample(tr *trace.Trace, ct *trace.Series) (xs [][]float64, ys []float64) {
	feats := PacketFeatures(tr, ct)
	flags := tr.ReorderedFlags()
	// ReorderedFlags covers delivered packets in sequence order; map back
	// to all packets (lost packets get label 0 and are kept: the predictor
	// sees the same feature stream the augmenter will).
	labels := make([]float64, len(tr.Packets))
	di := 0
	for i, p := range tr.Packets {
		if p.Lost {
			continue
		}
		if flags[di] {
			labels[i] = 1
		}
		di++
	}
	return feats, labels
}

// LSTMReorder is the LSTM-based reordering predictor of §5.1 ("we train an
// LSTM model (similar to that in Fig 6) to predict whether a packet should
// be reordered").
type LSTMReorder struct {
	net    *nn.SequenceModel
	xScale scaler
	useCT  bool
}

// LSTMReorderConfig parameterizes training; zero values pick defaults.
type LSTMReorderConfig struct {
	Hidden int // default 16
	Layers int // default 1
	Epochs int // default 15
	LR     float64
	UseCT  bool
	Seed   int64
	// MaxPacketsPerTrace truncates long traces for tractable CPU training;
	// default 3000.
	MaxPacketsPerTrace int
}

func (c LSTMReorderConfig) withDefaults() LSTMReorderConfig {
	if c.Hidden <= 0 {
		c.Hidden = 16
	}
	if c.Layers <= 0 {
		c.Layers = 1
	}
	if c.Epochs <= 0 {
		c.Epochs = 15
	}
	if c.LR <= 0 {
		c.LR = 0.01
	}
	if c.MaxPacketsPerTrace <= 0 {
		c.MaxPacketsPerTrace = 3000
	}
	return c
}

// TrainLSTMReorder fits the LSTM reordering predictor.
func TrainLSTMReorder(samples []TrainingSample, cfg LSTMReorderConfig) (*LSTMReorder, error) {
	cfg = cfg.withDefaults()
	if len(samples) == 0 {
		return nil, fmt.Errorf("iboxml: no reorder training samples")
	}
	dim := 3
	if cfg.UseCT {
		dim = 4
	}
	type seq struct {
		xs [][]float64
		ys []float64
	}
	var seqs []seq
	var allX [][]float64
	for _, s := range samples {
		ct := s.CT
		if !cfg.UseCT {
			ct = nil
		}
		xs, ys := reorderSample(s.Trace, ct)
		if cfg.UseCT && s.CT == nil {
			for i := range xs {
				xs[i] = append(xs[i], 0)
			}
		}
		if len(xs) > cfg.MaxPacketsPerTrace {
			xs, ys = xs[:cfg.MaxPacketsPerTrace], ys[:cfg.MaxPacketsPerTrace]
		}
		if len(xs) == 0 {
			continue
		}
		seqs = append(seqs, seq{xs, ys})
		allX = append(allX, xs...)
	}
	if len(seqs) == 0 {
		return nil, fmt.Errorf("iboxml: reorder training data empty")
	}
	r := &LSTMReorder{useCT: cfg.UseCT, xScale: fitScaler(allX)}
	r.net = nn.NewSequenceModel(nn.BinaryHead, dim, cfg.Hidden, cfg.Layers, cfg.Seed)
	opt := nn.NewAdam(cfg.LR, r.net.Params())
	var xbuf rowBuf
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, s := range seqs {
			r.net.TrainSequence(xbuf.fill(r.xScale, s.xs), s.ys, nil)
			opt.Step()
		}
	}
	return r, nil
}

// Name implements ReorderPredictor.
func (r *LSTMReorder) Name() string { return "lstm" }

// Probs implements ReorderPredictor.
func (r *LSTMReorder) Probs(tr *trace.Trace, ct *trace.Series) []float64 {
	if !r.useCT {
		ct = nil
	}
	feats := PacketFeatures(tr, ct)
	if r.useCT && ct == nil {
		for i := range feats {
			feats[i] = append(feats[i], 0)
		}
	}
	pred := r.net.NewPredictor()
	out := make([]float64, len(feats))
	for i, f := range feats {
		out[i] = pred.StepProb(r.xScale.apply(f))
	}
	return out
}

// LinearReorder is §5.1's "lightweight and much faster linear logistic
// regression model", with the paper's exact feature set: instantaneous
// sending rate, inter-packet spacing and the cross-traffic estimate.
type LinearReorder struct {
	model *nn.Logistic
	useCT bool
}

// TrainLinearReorder fits the logistic reordering predictor.
func TrainLinearReorder(samples []TrainingSample, useCT bool, seed int64) (*LinearReorder, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("iboxml: no reorder training samples")
	}
	dim := 3
	if useCT {
		dim = 4
	}
	var xs [][]float64
	var ys []float64
	for _, s := range samples {
		ct := s.CT
		if !useCT {
			ct = nil
		}
		fx, fy := reorderSample(s.Trace, ct)
		if useCT && s.CT == nil {
			for i := range fx {
				fx[i] = append(fx[i], 0)
			}
		}
		xs = append(xs, fx...)
		ys = append(ys, fy...)
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("iboxml: reorder training data empty")
	}
	m := nn.NewLogistic(dim)
	m.Fit(xs, ys, 200, 0.5, seed)
	return &LinearReorder{model: m, useCT: useCT}, nil
}

// Name implements ReorderPredictor.
func (l *LinearReorder) Name() string { return "linear" }

// Probs implements ReorderPredictor.
func (l *LinearReorder) Probs(tr *trace.Trace, ct *trace.Series) []float64 {
	if !l.useCT {
		ct = nil
	}
	feats := PacketFeatures(tr, ct)
	if l.useCT && ct == nil {
		for i := range feats {
			feats[i] = append(feats[i], 0)
		}
	}
	out := make([]float64, len(feats))
	for i, f := range feats {
		out[i] = l.model.Prob(f)
	}
	return out
}

// AugmentReordering applies a reordering predictor to an iBoxNet-simulated
// (in-order) trace: packets whose predicted probability exceeds a
// Bernoulli draw get their delivery time pulled ahead of the previous
// packet's, recreating the overtaking that iBoxNet's single FIFO queue
// cannot produce ("we use this prediction to suitably modify the delay
// output by iBoxNet", §5.1). The input trace is not modified.
func AugmentReordering(tr *trace.Trace, pred ReorderPredictor, ct *trace.Series, seed int64) *trace.Trace {
	probs := pred.Probs(tr, ct)
	rng := sim.NewRand(seed, 41)
	out := &trace.Trace{Protocol: tr.Protocol + "+" + pred.Name(), PathID: tr.PathID}
	out.Packets = append([]trace.Packet(nil), tr.Packets...)
	var prevRecv sim.Time = -1
	for i := range out.Packets {
		p := &out.Packets[i]
		if p.Lost {
			continue
		}
		if prevRecv >= 0 && rng.Float64() < probs[i] {
			// Deliver just before the previous packet: a reordering event
			// (negative inter-arrival, SAX symbol 'a').
			jitter := sim.Time(rng.Float64() * float64(2*sim.Millisecond))
			newRecv := prevRecv - jitter - sim.Microsecond
			if newRecv > p.SendTime {
				p.RecvTime = newRecv
			}
		}
		if p.RecvTime > prevRecv {
			prevRecv = p.RecvTime
		}
	}
	return out
}
