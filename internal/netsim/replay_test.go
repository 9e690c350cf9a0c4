package netsim

import (
	"fmt"
	"strings"
	"testing"

	"ibox/internal/sim"
)

// eagerReplay is the reference for Replay's lazy schedule: it queues
// every packet of the series as its own event the moment it starts, which
// is what Replay did before it learned to keep only its next packet
// queued.
type eagerReplay Replay

func (c eagerReplay) start(p injector) {
	size := c.PacketSize
	if size <= 0 {
		size = 1500
	}
	if c.Step <= 0 {
		return
	}
	for i, b := range c.Bytes {
		n := int(b / float64(size))
		rem := int(b) - n*size
		winStart := c.Start + sim.Time(i)*c.Step
		if n == 0 && rem < 40 {
			continue
		}
		total := n
		if rem >= 40 {
			total++
		}
		gap := c.Step / sim.Time(total)
		for j := 0; j < total; j++ {
			at := winStart + sim.Time(j)*gap
			if at < p.sched.Now() {
				at = p.sched.Now()
			}
			sz := size
			if j == n { // the remainder packet
				sz = rem
			}
			p.sched.At(at, func() { p.enqueue(sz) })
		}
	}
}

// TestReplayLazyMatchesEager: a probe flow sharing the bottleneck with a
// replayed series sees exactly the same deliveries and drops whether the
// series is scheduled lazily or eagerly — including when the replay starts
// mid-run with part of the series already in the past (a live session
// rebuilding its path), when other events share its timestamps, and with
// windows that hold no packet, only a remainder, or a too-small remainder.
func TestReplayLazyMatchesEager(t *testing.T) {
	series := Replay{
		Start: 100 * sim.Millisecond,
		Step:  100 * sim.Millisecond,
		Bytes: []float64{0, 39, 40, 1499, 1500, 1540, 30000, 12, 90000, 0, 0, 4500, 7, 22000, 1e5, 600, -3000, 2999.9},
	}
	run := func(ct CrossTraffic, startAt sim.Time, size int) string {
		sched := sim.NewScheduler()
		path := New(sched, Config{Rate: 1_250_000, BufferBytes: 40_000, PropDelay: 10 * sim.Millisecond, Seed: 1})
		port := path.Port("probe")
		var log strings.Builder
		id := 0
		var probe func()
		probe = func() {
			n := id
			id++
			port.Send(1000,
				func(recv sim.Time) { fmt.Fprintf(&log, "%d@%d ", n, recv) },
				func() { fmt.Fprintf(&log, "%d! ", n) })
			if sched.Now() < 2500*sim.Millisecond {
				// 1 ms probes land on the replay's own timestamps (its
				// gaps divide 100 ms), so ties are exercised.
				sched.After(sim.Millisecond, probe)
			}
		}
		sched.At(0, probe)
		sched.At(startAt, func() {
			switch c := ct.(type) {
			case Replay:
				c.PacketSize = size
				path.AddCrossTraffic(c)
			case eagerReplay:
				c.PacketSize = size
				path.AddCrossTraffic(c)
			}
		})
		sched.RunUntil(4 * sim.Second)
		if sched.Pending() != 0 {
			t.Errorf("%d events still pending after the series ended", sched.Pending())
		}
		return log.String()
	}
	for _, startAt := range []sim.Time{0, 100 * sim.Millisecond, 850 * sim.Millisecond, 3 * sim.Second} {
		for _, size := range []int{0, 1500, 700} {
			lazy := run(series, startAt, size)
			eager := run(eagerReplay(series), startAt, size)
			if lazy != eager {
				t.Errorf("start %v, packet size %d: lazy and eager replay diverge", startAt, size)
			}
			if startAt < sim.Second && lazy == run(Replay{Step: series.Step}, startAt, size) {
				t.Errorf("start %v, packet size %d: the replayed series had no effect on the probe", startAt, size)
			}
		}
	}
}

// TestReplayKeepsOneEventPending: however long the series, a replay holds
// one scheduler event (the idle-session footprint this exists for).
func TestReplayKeepsOneEventPending(t *testing.T) {
	sched := sim.NewScheduler()
	path := New(sched, basicCfg())
	bytes := make([]float64, 1000)
	for i := range bytes {
		bytes[i] = 15000
	}
	path.AddCrossTraffic(Replay{Step: 100 * sim.Millisecond, Bytes: bytes})
	if got := sched.Pending(); got != 1 {
		t.Fatalf("%d events pending after attaching a 10 000-packet replay, want 1", got)
	}
}
