// Package iboxml implements the paper's ML-based approach (§4): a deep
// state-space model — a multi-layer LSTM encoding the "network state" h_t
// from packet-stream features, with a Gaussian head P(d_t | h_t) =
// N(w₁ᵀh_t, w₂ᵀh_t) — trained on input–output traces and unrolled
// closed-loop at inference (predicted delays fed back, Fig 6's blue dashed
// lines). It also implements the §5 meldings: the optional cross-traffic
// input feature (mitigating control-loop bias, §4.2/§5.2) and the
// reordering predictors (LSTM and linear logistic) that graft discovered
// behaviours onto iBoxNet output (§5.1).
package iboxml

import (
	"math"

	"ibox/internal/sim"
	"ibox/internal/trace"
)

// WindowFeatures extracts per-window features from a trace's *send side*
// plus the optional cross-traffic estimate:
//
//	[0] sending rate (bytes sent in the window)
//	[1] mean inter-packet spacing within the window (ms)
//	[2] mean packet size (bytes)
//	[3] previous window's delay (ms) — filled by the caller (teacher
//	    forcing during training, fed back during closed-loop inference)
//	[4] cross-traffic estimate for the window (bytes), when ct != nil
//
// These are exactly §4.1's inputs x_t: "instantaneous sending rate …,
// inter-packet spacing, packet size, and previous delay d_{t−1}",
// augmented with §5.2's cross-traffic estimate.
//
// The returned target ys holds the mean delivered one-way delay per window
// (ms) and mask marks windows with at least one delivered packet (lost
// packets have unobserved delay, §4.1).
func WindowFeatures(tr *trace.Trace, ct *trace.Series, window sim.Time) (xs [][]float64, ys []float64, mask []bool) {
	return windowFeatures(tr, tr.Duration(), ct, window)
}

// windowFeatures is WindowFeatures given tr's duration.
func windowFeatures(tr *trace.Trace, dur sim.Time, ct *trace.Series, window sim.Time) (xs [][]float64, ys []float64, mask []bool) {
	if len(tr.Packets) == 0 {
		return nil, nil, nil
	}
	start := tr.Packets[0].SendTime
	end := start + dur
	n := int((end - start) / window)
	if n <= 0 {
		n = 1
	}
	dim := 4
	if ct != nil {
		dim = 5
	}
	xs = make([][]float64, n)
	ys = make([]float64, n)
	mask = make([]bool, n)
	counts := make([]int, n)
	sizes := make([]float64, n)
	sends := make([]int, n)
	var lastSend sim.Time = -1
	spacing := make([]float64, n)
	spacingN := make([]int, n)
	for i := range xs {
		xs[i] = make([]float64, dim)
	}
	for _, p := range tr.Packets {
		w := int((p.SendTime - start) / window)
		if w < 0 {
			w = 0
		}
		if w >= n {
			w = n - 1
		}
		xs[w][0] += float64(p.Size)
		sizes[w] += float64(p.Size)
		sends[w]++
		if lastSend >= 0 {
			spacing[w] += (p.SendTime - lastSend).Millis()
			spacingN[w]++
		}
		lastSend = p.SendTime
		if !p.Lost {
			ys[w] += p.Delay().Millis()
			counts[w]++
		}
	}
	lastDelay := 0.0
	for w := 0; w < n; w++ {
		if sends[w] > 0 {
			xs[w][2] = sizes[w] / float64(sends[w])
		}
		if spacingN[w] > 0 {
			xs[w][1] = spacing[w] / float64(spacingN[w])
		} else {
			xs[w][1] = window.Millis()
		}
		if counts[w] > 0 {
			ys[w] /= float64(counts[w])
			mask[w] = true
			lastDelay = ys[w]
		} else {
			ys[w] = lastDelay
		}
		if ct != nil {
			xs[w][4] = ct.At(start + sim.Time(w)*window)
		}
	}
	// Previous-delay feature (teacher forcing): d_{t−1} from the target.
	for w := 1; w < n; w++ {
		xs[w][3] = ys[w-1]
	}
	xs[0][3] = ys[0]
	return xs, ys, mask
}

// features returns tr's window feature rows as m reads them: with the
// cross-traffic column exactly when m was trained on it, zero throughout
// when ct is nil. dur is tr's duration.
func (m *Model) features(tr *trace.Trace, ct *trace.Series, dur sim.Time) [][]float64 {
	if !m.Cfg.UseCrossTraffic {
		ct = nil
	}
	xs, _, _ := windowFeatures(tr, dur, ct, m.Cfg.Window)
	if m.Cfg.UseCrossTraffic && ct == nil {
		for i := range xs {
			xs[i] = append(xs[i], 0)
		}
	}
	return xs
}

// PacketFeatures extracts per-packet features (send side only):
//
//	[0] instantaneous sending rate: bytes sent during the second
//	    preceding the packet's timestamp (§4.1's definition)
//	[1] inter-packet spacing from the previous packet (ms)
//	[2] packet size (bytes)
//	[3] cross-traffic estimate at the send time (bytes/window), when
//	    ct != nil
//
// This is the feature set of the §5.1 reordering predictors.
func PacketFeatures(tr *trace.Trace, ct *trace.Series) [][]float64 {
	n := len(tr.Packets)
	dim := 3
	if ct != nil {
		dim = 4
	}
	out := make([][]float64, n)
	lo := 0
	bytesInWin := 0
	for i, p := range tr.Packets {
		for lo < i && p.SendTime-tr.Packets[lo].SendTime > sim.Second {
			bytesInWin -= tr.Packets[lo].Size
			lo++
		}
		f := make([]float64, dim)
		f[0] = float64(bytesInWin) // bytes in the preceding second
		if i > 0 {
			f[1] = (p.SendTime - tr.Packets[i-1].SendTime).Millis()
		}
		f[2] = float64(p.Size)
		if ct != nil {
			f[3] = ct.At(p.SendTime)
		}
		out[i] = f
		bytesInWin += p.Size
	}
	return out
}

// scaler standardizes features and targets to zero mean, unit variance,
// using statistics accumulated from training data.
type scaler struct {
	Mean []float64
	Std  []float64
}

func fitScaler(rows [][]float64) scaler {
	if len(rows) == 0 {
		return scaler{}
	}
	d := len(rows[0])
	s := scaler{Mean: make([]float64, d), Std: make([]float64, d)}
	for _, r := range rows {
		for j, v := range r {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= float64(len(rows))
	}
	for _, r := range rows {
		for j, v := range r {
			dd := v - s.Mean[j]
			s.Std[j] += dd * dd
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / float64(len(rows)))
		if s.Std[j] == 0 {
			s.Std[j] = 1
		}
	}
	return s
}

func (s scaler) apply(row []float64) []float64 {
	out := make([]float64, len(row))
	s.applyInto(row, out)
	return out
}

// rowBuf is a training loop's reusable buffer of standardized feature
// rows, grown to the longest sequence it has held: refilling it for every
// sequence and epoch replaces allocating a fresh row per window.
type rowBuf [][]float64

// fill standardizes src through s into the buffer and returns its first
// len(src) rows.
func (b *rowBuf) fill(s scaler, src [][]float64) [][]float64 {
	for len(*b) < len(src) {
		*b = append(*b, make([]float64, len(s.Mean)))
	}
	rows := (*b)[:len(src)]
	for t, row := range src {
		s.applyInto(row, rows[t])
	}
	return rows
}

// applyInto standardizes row into dst without allocating; identical
// arithmetic to apply. dst must have len(row); aliasing row is fine
// (the transform is elementwise).
func (s scaler) applyInto(row, dst []float64) {
	for j, v := range row {
		dst[j] = (v - s.Mean[j]) / s.Std[j]
	}
}
