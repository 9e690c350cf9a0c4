package trace

import (
	"fmt"
	"math"

	"ibox/internal/sim"
)

// Series is a regularly sampled time series: Values[i] is the value of the
// window beginning at Start + i*Step. It is the common currency between
// trace analysis, cross-traffic estimation, and the iBoxML feature pipeline.
type Series struct {
	Start sim.Time
	Step  sim.Time
	Vals  []float64
}

// NewSeries allocates a zero-valued series with n windows.
func NewSeries(start, step sim.Time, n int) *Series {
	return &Series{Start: start, Step: step, Vals: make([]float64, n)}
}

// Len returns the number of windows.
func (s *Series) Len() int { return len(s.Vals) }

// TimeAt returns the start time of window i.
func (s *Series) TimeAt(i int) sim.Time { return s.Start + sim.Time(i)*s.Step }

// Index returns the window index containing time t, clamped to the valid
// range; ok is false when t falls outside the series entirely.
func (s *Series) Index(t sim.Time) (i int, ok bool) {
	if s.Step <= 0 || len(s.Vals) == 0 {
		return 0, false
	}
	i = int((t - s.Start) / s.Step)
	if t < s.Start {
		return 0, false
	}
	if i >= len(s.Vals) {
		return len(s.Vals) - 1, false
	}
	return i, true
}

// At returns the value of the window containing time t. Times before the
// series clamp to the first window and times after to the last.
func (s *Series) At(t sim.Time) float64 {
	i, _ := s.Index(t)
	return s.Vals[i]
}

// Mean returns the arithmetic mean of the values (NaN for empty).
func (s *Series) Mean() float64 {
	if len(s.Vals) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s.Vals {
		sum += v
	}
	return sum / float64(len(s.Vals))
}

// Max returns the maximum value (NaN for empty).
func (s *Series) Max() float64 {
	if len(s.Vals) == 0 {
		return math.NaN()
	}
	m := s.Vals[0]
	for _, v := range s.Vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// String summarizes the series for debugging.
func (s *Series) String() string {
	return fmt.Sprintf("Series{start=%v step=%v n=%d mean=%.3g}", s.Start, s.Step, len(s.Vals), s.Mean())
}

// numWindows returns how many windows of the given step cover [start, end].
func numWindows(start, end, step sim.Time) int {
	if end <= start || step <= 0 {
		return 0
	}
	return int((end-start+step-1)/step) + 1
}

// SendRateSeries returns the sender's offered rate in bits per second per
// window: bytes sent during each window × 8 ÷ window length.
func (t *Trace) SendRateSeries(step sim.Time) *Series {
	if len(t.Packets) == 0 {
		return NewSeries(0, step, 0)
	}
	start := t.Packets[0].SendTime
	end := start + t.Duration()
	s := NewSeries(start, step, numWindows(start, end, step))
	for _, p := range t.Packets {
		if i, ok := s.Index(p.SendTime); ok {
			s.Vals[i] += float64(p.Size)
		}
	}
	scale := 8 / step.Seconds()
	for i := range s.Vals {
		s.Vals[i] *= scale
	}
	return s
}

// RecvRateSeries returns the receiver's delivered rate in bits per second
// per window.
func (t *Trace) RecvRateSeries(step sim.Time) *Series {
	if len(t.Packets) == 0 {
		return NewSeries(0, step, 0)
	}
	start := t.Packets[0].SendTime
	end := start + t.Duration()
	s := NewSeries(start, step, numWindows(start, end, step))
	for _, p := range t.Packets {
		if p.Lost {
			continue
		}
		if i, ok := s.Index(p.RecvTime); ok {
			s.Vals[i] += float64(p.Size)
		}
	}
	scale := 8 / step.Seconds()
	for i := range s.Vals {
		s.Vals[i] *= scale
	}
	return s
}

// DelaySeries returns the mean delivered one-way delay in milliseconds per
// window (indexed by send time). Windows with no delivered packets carry
// the previous window's value forward, so the series is defined everywhere.
func (t *Trace) DelaySeries(step sim.Time) *Series {
	if len(t.Packets) == 0 {
		return NewSeries(0, step, 0)
	}
	start := t.Packets[0].SendTime
	end := start + t.Duration()
	s := NewSeries(start, step, numWindows(start, end, step))
	counts := make([]int, len(s.Vals))
	for _, p := range t.Packets {
		if p.Lost {
			continue
		}
		if i, ok := s.Index(p.SendTime); ok {
			s.Vals[i] += p.Delay().Millis()
			counts[i]++
		}
	}
	last := 0.0
	for i := range s.Vals {
		if counts[i] > 0 {
			s.Vals[i] /= float64(counts[i])
			last = s.Vals[i]
		} else {
			s.Vals[i] = last
		}
	}
	return s
}

// PeakRecvRate returns the peak delivered rate in bits per second over
// sliding windows of the given width, computed at packet-arrival
// granularity. This is the paper's bottleneck-bandwidth estimator input
// (§3: "the peak receiving rate, over 1s sliding windows").
func (t *Trace) PeakRecvRate(window sim.Time) float64 {
	if window <= 0 {
		return 0
	}
	// Sort arrivals by receive time; a true sliding window over arrivals.
	arr := arrivalScratch.get(len(t.Packets))
	for _, p := range t.Packets {
		if !p.Lost {
			arr = append(arr, arrival{p.RecvTime, p.Size})
		}
	}
	defer arrivalScratch.put(arr)
	for i := 1; i < len(arr); i++ {
		for j := i; j > 0 && arr[j].recv < arr[j-1].recv; j-- {
			arr[j], arr[j-1] = arr[j-1], arr[j]
		}
	}
	best := 0.0
	lo := 0
	bytes := 0
	for hi := 0; hi < len(arr); hi++ {
		bytes += arr[hi].size
		for arr[hi].recv-arr[lo].recv > window {
			bytes -= arr[lo].size
			lo++
		}
		if r := float64(bytes) * 8 / window.Seconds(); r > best {
			best = r
		}
	}
	return best
}

// arrival is one delivered packet as PeakRecvRate reads it.
type arrival struct {
	recv sim.Time
	size int
}

// arrivalScratch holds PeakRecvRate's arrivals.
var arrivalScratch = scratch[arrival]{max: scratchMax}

// MinDelay returns the minimum delivered one-way delay (the paper's
// propagation-delay estimator) and MaxDelay the maximum. Both return
// (0, false) when nothing was delivered.
func (t *Trace) MinDelay() (sim.Time, bool) {
	var best sim.Time
	found := false
	for _, p := range t.Packets {
		if p.Lost {
			continue
		}
		if !found || p.Delay() < best {
			best = p.Delay()
			found = true
		}
	}
	return best, found
}

// MaxDelay returns the maximum delivered one-way delay.
func (t *Trace) MaxDelay() (sim.Time, bool) {
	var best sim.Time
	found := false
	for _, p := range t.Packets {
		if p.Lost {
			continue
		}
		if !found || p.Delay() > best {
			best = p.Delay()
			found = true
		}
	}
	return best, found
}
