package iboxnet

import (
	"fmt"
	"math"

	"ibox/internal/cc"
	"ibox/internal/netsim"
	"ibox/internal/sim"
)

// This file implements the §6 research direction the paper sketches:
// "Learning adaptive cross traffic ... say by expressing it in terms of a
// certain number of flows of TCP Cubic (the dominant transport protocol in
// the Internet)". Replaying the estimated cross-traffic byte series is a
// lower bound — it cannot push back when the protocol under test yields,
// nor yield when it pushes. Expressing the same evidence as competing
// closed-loop Cubic flows restores that adaptivity.

// CTInterval is one learnt busy period of the cross traffic: during
// [Start, End) the competing workload behaved like Flows TCP Cubic flows.
type CTInterval struct {
	Start sim.Time
	End   sim.Time
	Flows int
}

// AdaptiveCT is a learnt adaptive cross-traffic model.
type AdaptiveCT struct {
	Intervals []CTInterval
}

// String summarizes the model.
func (a AdaptiveCT) String() string {
	return fmt.Sprintf("AdaptiveCT{%d intervals}", len(a.Intervals))
}

// LearnAdaptiveCT converts the conservative cross-traffic byte series into
// an adaptive model. Windows where estimated cross traffic exceeds
// activityFrac of the link capacity are "busy"; contiguous busy runs
// (bridging gaps up to two windows) become intervals. Within an interval,
// if the cross traffic held a fraction f of capacity against our
// (presumed saturating) training flow, k competing Cubic flows would hold
// f ≈ k/(k+1), so k ≈ f/(1−f), clamped to [1, 8].
//
// The estimate is conservative twice over (the byte series is a lower
// bound, and the flow-count inversion assumes the training sender competed
// at full strength), matching the paper's bias: better to under- than
// over-state competition.
func (p Params) LearnAdaptiveCT() AdaptiveCT {
	const activityFrac = 0.05
	ct := p.CrossTraffic
	if ct == nil || ct.Len() == 0 || p.Bandwidth <= 0 {
		return AdaptiveCT{}
	}
	capBytesPerWin := p.Bandwidth * ct.Step.Seconds()
	busy := make([]bool, ct.Len())
	for i, v := range ct.Vals {
		busy[i] = v > activityFrac*capBytesPerWin
	}
	// Bridge gaps of up to 2 windows.
	for i := 1; i < len(busy)-1; i++ {
		if !busy[i] && busy[i-1] && (busy[i+1] || (i+2 < len(busy) && busy[i+2])) {
			busy[i] = true
		}
	}
	var out AdaptiveCT
	i := 0
	for i < len(busy) {
		if !busy[i] {
			i++
			continue
		}
		j := i
		sum := 0.0
		for j < len(busy) && busy[j] {
			sum += ct.Vals[j]
			j++
		}
		meanRate := sum / (float64(j-i) * ct.Step.Seconds()) // bytes/sec
		f := meanRate / p.Bandwidth
		if f > 0.9 {
			f = 0.9
		}
		k := int(math.Round(f / (1 - f)))
		if k < 1 {
			k = 1
		}
		if k > 8 {
			k = 8
		}
		out.Intervals = append(out.Intervals, CTInterval{
			Start: ct.TimeAt(i),
			End:   ct.TimeAt(j-1) + ct.Step,
			Flows: k,
		})
		i = j
	}
	return out
}

// EmulateAdaptive instantiates the learnt model with *adaptive* cross
// traffic: instead of replaying the byte series, each learnt busy interval
// attaches that many closed-loop TCP Cubic flows to the emulated
// bottleneck. The returned path carries live competing flows that react to
// whatever protocol the caller attaches — the behaviour replay cannot
// provide.
func (p Params) EmulateAdaptive(sched *sim.Scheduler, seed int64) *netsim.Path {
	cfg := netsim.Config{
		Rate:        p.Bandwidth,
		BufferBytes: p.BufferBytes,
		PropDelay:   p.PropDelay,
		Seed:        seed,
	}
	path := netsim.New(sched, cfg)
	act := p.LearnAdaptiveCT()
	for ii, iv := range act.Intervals {
		dur := iv.End - iv.Start
		if dur <= 0 {
			continue
		}
		for f := 0; f < iv.Flows; f++ {
			flow := cc.NewFlow(sched, path.Port(fmt.Sprintf("ct-%d-%d", ii, f)),
				cc.NewCubic(), cc.FlowConfig{
					Start:    iv.Start,
					Duration: dur,
					AckDelay: p.PropDelay,
					NoTrace:  true, // cross traffic: only its load matters
				})
			flow.Start()
		}
	}
	return path
}
