package iboxml

import (
	"fmt"
	"math"
	"time"

	"ibox/internal/nn"
	"ibox/internal/sim"
)

// minWindow is the shortest feature window a model may declare. Replay
// runs one closed-loop step per window, so its cost is the trace duration
// over the window: a 10 s replay at a 3 ns window is ≈3·10⁹ steps, which
// would hold a serving pool worker indefinitely. Everything in the tree
// trains with 50–100 ms windows; 1 ms leaves ample room below them.
const minWindow = sim.Millisecond

// Validate checks that a model — typically one just deserialized from
// disk — is structurally sound and numerically finite, so the serving
// registry can never warm-load garbage into memory: a truncated or
// hand-edited checkpoint is rejected at load time instead of producing
// NaN delays (or a panic) on the first request.
func (m *Model) Validate() error {
	if m.Net == nil {
		return fmt.Errorf("iboxml: model has no network")
	}
	if m.Net.Kind != nn.GaussianHead {
		return fmt.Errorf("iboxml: model head kind %d is not a Gaussian delay head", m.Net.Kind)
	}
	in, _, layers := m.Net.Arch()
	if layers == 0 || m.Net.Head == nil {
		return fmt.Errorf("iboxml: model network is missing layers")
	}
	if m.Cfg.Window < minWindow {
		return fmt.Errorf("iboxml: feature window %v below the %v minimum",
			time.Duration(m.Cfg.Window), time.Duration(minWindow))
	}
	dim := 4
	if m.Cfg.UseCrossTraffic {
		dim = 5
	}
	if in != dim {
		return fmt.Errorf("iboxml: network input dim %d does not match the %d-dim feature config", in, dim)
	}
	if m.Net.Head.Out != 2 {
		return fmt.Errorf("iboxml: Gaussian head output dim %d, want 2", m.Net.Head.Out)
	}
	if len(m.xScale.Mean) != dim || len(m.xScale.Std) != dim {
		return fmt.Errorf("iboxml: feature scaler has %d/%d entries, want %d",
			len(m.xScale.Mean), len(m.xScale.Std), dim)
	}
	for j, v := range m.xScale.Mean {
		if !finite(v) {
			return fmt.Errorf("iboxml: non-finite feature mean[%d]", j)
		}
	}
	for j, v := range m.xScale.Std {
		if !finite(v) || v <= 0 {
			return fmt.Errorf("iboxml: feature std[%d] = %v, want finite > 0", j, v)
		}
	}
	if !finite(m.yMean) {
		return fmt.Errorf("iboxml: non-finite target mean")
	}
	if !finite(m.yStd) || m.yStd <= 0 {
		return fmt.Errorf("iboxml: target std %v, want finite > 0", m.yStd)
	}
	if !finite(m.outlierRate) || m.outlierRate < 0 || m.outlierRate > 1 {
		return fmt.Errorf("iboxml: outlier rate %v outside [0,1]", m.outlierRate)
	}
	if !finite(m.minDelayMs) || m.minDelayMs < 0 {
		return fmt.Errorf("iboxml: minimum delay %v ms, want finite >= 0", m.minDelayMs)
	}
	if len(m.env.Min) != len(m.env.Max) {
		return fmt.Errorf("iboxml: envelope min/max lengths differ (%d vs %d)",
			len(m.env.Min), len(m.env.Max))
	}
	if !m.Net.Finite() {
		return fmt.Errorf("iboxml: network contains non-finite weights")
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
