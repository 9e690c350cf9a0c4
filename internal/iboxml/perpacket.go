package iboxml

import (
	"fmt"

	"ibox/internal/nn"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// This file implements the paper's native granularity: Fig 6's model steps
// once per *packet* ("let d_t denote the delay suffered at R by a packet
// sent from S"), with features "instantaneous sending rate …, inter-packet
// spacing, packet size, and previous delay d_{t−1}". The window-based
// Model is the tractable default for pure-Go CPU training; PacketModel is
// the faithful formulation, usable when traces (or budgets) are small.

// PacketModel is a per-packet iBoxML delay model.
type PacketModel struct {
	Cfg     Config
	Net     *nn.SequenceModel
	xScale  scaler
	yMean   float64
	yStd    float64
	trained bool
	// MaxSeqLen bounds BPTT length: longer traces are split into segments.
	MaxSeqLen int
}

// packetXY builds the per-packet feature/target arrays: features
// [instantaneous rate, spacing, size, prevDelay(, ct)], target = delay ms,
// mask = delivered.
func packetXY(tr *trace.Trace, ct *trace.Series) (xs [][]float64, ys []float64, mask []bool) {
	base := PacketFeatures(tr, ct) // [rate, spacing, size(, ct)]
	n := len(base)
	xs = make([][]float64, n)
	ys = make([]float64, n)
	mask = make([]bool, n)
	prev := 0.0
	for i, p := range tr.Packets {
		row := make([]float64, 0, len(base[i])+1)
		row = append(row, base[i][0], base[i][1], base[i][2], prev)
		if len(base[i]) == 4 {
			row = append(row, base[i][3]) // ct column last
		}
		xs[i] = row
		if !p.Lost {
			ys[i] = p.Delay().Millis()
			mask[i] = true
			prev = ys[i]
		} else {
			ys[i] = prev
		}
	}
	return xs, ys, mask
}

// TrainPacket fits a per-packet model. cfg.Window is ignored; the other
// Config fields keep their meaning.
func TrainPacket(samples []TrainingSample, cfg Config) (*PacketModel, error) {
	cfg = cfg.withDefaults()
	if len(samples) == 0 {
		return nil, fmt.Errorf("iboxml: no training samples")
	}
	dim := 4
	if cfg.UseCrossTraffic {
		dim = 5
	}
	const maxSeqLen = 600
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
		xs, ys, mask := packetXY(s.Trace, ct)
		if cfg.UseCrossTraffic && s.CT == nil {
			for i := range xs {
				xs[i] = append(xs[i], 0)
			}
		}
		// Split into BPTT segments.
		for lo := 0; lo < len(xs); lo += maxSeqLen {
			hi := lo + maxSeqLen
			if hi > len(xs) {
				hi = len(xs)
			}
			if hi-lo < 10 {
				break
			}
			seqs = append(seqs, seq{xs[lo:hi], ys[lo:hi], mask[lo:hi]})
		}
		allX = append(allX, xs...)
		for i, m := range mask {
			if m {
				allY = append(allY, ys[i])
			}
		}
	}
	if len(seqs) == 0 || len(allY) == 0 {
		return nil, fmt.Errorf("iboxml: per-packet training data empty")
	}
	m := &PacketModel{Cfg: cfg, MaxSeqLen: maxSeqLen}
	m.xScale = fitScaler(allX)
	m.yMean = mean(allY)
	m.yStd = std(allY, m.yMean)
	if m.yStd == 0 {
		m.yStd = 1
	}
	m.Net = nn.NewSequenceModel(nn.GaussianHead, dim, cfg.Hidden, cfg.Layers, cfg.Seed+9000)
	opt := nn.NewAdam(cfg.LR, m.Net.Params())
	noise := sim.NewRand(cfg.Seed, 717)
	var xbuf rowBuf
	var ybuf []float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, s := range seqs {
			xs, ys := xbuf.fill(m.xScale, s.xs), ybuf[:0]
			for t := range xs {
				ys = append(ys, (s.ys[t]-m.yMean)/m.yStd)
				if cfg.PrevDelayNoise > 0 {
					xs[t][3] += cfg.PrevDelayNoise * noise.NormFloat64()
				}
			}
			ybuf = ys
			m.Net.FitSequence(opt, xs, ys, s.mask)
		}
	}
	m.trained = true
	return m, nil
}

// NumParams reports the scalar parameter count.
func (m *PacketModel) NumParams() int { return m.Net.NumParams() }

// PredictPackets replays a trace's send-side timeline through the model
// closed-loop, one LSTM step per packet, returning the predicted per-
// packet delay mean and standard deviation in milliseconds.
func (m *PacketModel) PredictPackets(tr *trace.Trace, ct *trace.Series) (mu, sigma []float64) {
	if !m.trained {
		panic("iboxml: packet model not trained")
	}
	var ctArg *trace.Series
	if m.Cfg.UseCrossTraffic {
		ctArg = ct
	}
	xs, _, _ := packetXY(tr, ctArg)
	if m.Cfg.UseCrossTraffic && ctArg == nil {
		for i := range xs {
			xs[i] = append(xs[i], 0)
		}
	}
	pred := m.Net.NewPredictor()
	mu = make([]float64, len(xs))
	sigma = make([]float64, len(xs))
	prev := 0.0
	for i := range xs {
		if i > 0 {
			xs[i][3] = prev // closed loop: feed back our own prediction
		}
		out := pred.StepGaussian(m.xScale.apply(xs[i]))
		mu[i] = out.Mu*m.yStd + m.yMean
		if mu[i] < 0 {
			mu[i] = 0
		}
		sigma[i] = out.Sigma * m.yStd
		prev = mu[i]
	}
	return mu, sigma
}

// SimulateTrace produces a predicted output trace at per-packet
// granularity: the closed-loop per-packet means are used directly (Fig 6's
// formulation needs no window-to-packet sampling stage — temporal
// structure comes from the recurrent state).
func (m *PacketModel) SimulateTrace(tr *trace.Trace, ct *trace.Series, seed int64) *trace.Trace {
	mu, sigma := m.PredictPackets(tr, ct)
	rng := sim.NewRand(seed, 719)
	out := &trace.Trace{Protocol: tr.Protocol + "-iboxml-pkt", PathID: tr.PathID}
	for i, p := range tr.Packets {
		q := p
		if !p.Lost {
			// Small per-packet sampling: a fraction of the predicted sigma,
			// keeping FIFO-plausible smoothness.
			d := mu[i] + 0.1*sigma[i]*rng.NormFloat64()
			if d < 0.1 {
				d = 0.1
			}
			q.RecvTime = p.SendTime + sim.Time(d*float64(sim.Millisecond))
		}
		out.Packets = append(out.Packets, q)
	}
	return out
}
