package session

import (
	"runtime"
	"testing"
	"time"

	"ibox/internal/sim"
)

// heapAlloc returns the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's finalizers released
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestSessionMemoryBounded: a live session's memory is O(ring), not
// O(lifetime). Regression test for the flow's packet trace, which a
// session never reads but used to record for ever — about 40 bytes per
// packet, ≈3 MB per wall second for an unpaced session.
func TestSessionMemoryBounded(t *testing.T) {
	// A 2 Mbit/s path keeps the run short under the race detector; the
	// leak this guards against would still be ≈13 MiB here.
	net := testNetParams()
	net.Bandwidth = 250_000
	before := heapAlloc()
	s, err := New(Config{
		ID: "bounded", Kind: KindIBoxNet, Net: net,
		Protocol: "cubic", Seed: 5, Speed: -1, Duration: 2000 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-s.Done()
	after := heapAlloc()
	info := s.Info() // also keeps the finished session, and all it holds, reachable
	if info.VTSeconds < 2000 || info.Events < 300_000 {
		t.Fatalf("session ended early: vt %.0f s, %d events", info.VTSeconds, info.Events)
	}
	const bound = 4 << 20
	if grown := int64(after) - int64(before); grown > bound {
		t.Errorf("heap grew by %.1f MiB over %.0f virtual seconds (%d events), want under %d MiB",
			float64(grown)/(1<<20), info.VTSeconds, info.Events, bound>>20)
	}
}

// unpacedTicker builds a session with no run goroutine, applies mus, and
// returns it with a function that steps it one tick, exactly as its run
// loop would, after 20 virtual seconds of warm-up: the ring is full and
// every pool and slice is at its working size.
func unpacedTicker(tb testing.TB, id string, mus ...Mutation) (*Session, func()) {
	tb.Helper()
	s, err := build(Config{
		ID: id, Kind: KindIBoxNet, Net: testNetParams(),
		Protocol: "cubic", Seed: 9, Speed: -1, Duration: 1e6 * sim.Second,
	})
	if err != nil {
		tb.Fatal(err)
	}
	for _, mu := range mus {
		if err := s.mutate(mu); err != nil {
			tb.Fatal(err)
		}
	}
	tick := func() {
		s.step(s.sched.Now() + s.cfg.Tick)
		s.publishPending()
	}
	for i := 0; i < 400; i++ {
		tick()
	}
	return s, tick
}

// TestUnwatchedSessionAllocs: with no subscriber, producing and
// publishing telemetry allocates nothing — events stay flat records in a
// ring that is already at capacity, and nothing is encoded. The session
// is ticked from here, so the measurement sees the virtual side alone.
// It holds under live impairments too: a packet a reorder burst holds
// back is a recycled object, not a pair of closures.
func TestUnwatchedSessionAllocs(t *testing.T) {
	loss, reorder := 0.05, 0.3
	for _, c := range []struct {
		name       string
		mus        []Mutation
		minPerTick float64 // events per tick below which the flow has stalled
	}{
		{"steady", nil, 20},
		// Bursts with no end; cubic backs off under them.
		{"loss and reorder bursts", []Mutation{
			{LossRate: &loss},
			{ReorderRate: &reorder, ReorderExtraMs: 15},
		}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, tick := unpacedTicker(t, "unwatched", c.mus...)
			const rounds = 200
			events := s.events.Load()
			allocs := testing.AllocsPerRun(rounds, tick)
			perTick := float64(s.events.Load()-events) / (rounds + 1)
			if perTick < c.minPerTick {
				t.Fatalf("only %.1f events per tick", perTick)
			}
			if perEvent := allocs / perTick; perEvent > 0.01 {
				t.Errorf("%.3f allocations per published event (%.1f per tick of %.0f events), want amortised 0",
					perEvent, allocs, perTick)
			}
		})
	}
}

// BenchmarkSessionUnpaced is the session plane's in-process cost: one
// unpaced iBoxNet cubic session with full telemetry (an event per
// acknowledged packet), stepped tick by tick. One op is one 50 ms tick;
// ns/ack and virt-s/s put it in the units of the session_live workload.
func BenchmarkSessionUnpaced(b *testing.B) {
	s, tick := unpacedTicker(b, "bench")
	acks, vt := s.acks, s.sched.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(s.acks-acks, 1)), "ns/ack")
	b.ReportMetric((s.sched.Now()-vt).Seconds()/b.Elapsed().Seconds(), "virt-s/s")
}

// TestIdleSessionPopulation: the population the idle-TTL reaper exists
// for — hundreds of paused sessions created through the Manager — costs
// little heap per session, and the reaper then empties it on its own. An
// idle session holds ≈33 KiB; the bound catches per-session state that
// grows with ring capacity or lifetime (it was ≈830 KiB before the event
// records went flat).
func TestIdleSessionPopulation(t *testing.T) {
	const (
		n     = 256
		bound = 128 << 10
		ttl   = time.Second
	)
	m := NewManager(Limits{
		MaxSessions: n,
		TTL:         ttl,
		ReapEvery:   25 * time.Millisecond,
	}, nil)
	defer m.Shutdown()

	before := heapAlloc()
	start := time.Now()
	for i := 0; i < n; i++ {
		s, err := m.Create(Config{
			Kind: KindIBoxNet, Net: testNetParams(),
			Protocol: "cubic", Seed: int64(i), RingSize: 256,
		})
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		if err := s.Pause(); err != nil {
			t.Fatalf("pause %d: %v", i, err)
		}
	}
	after := heapAlloc()
	// The measurement means nothing if the reaper already took some.
	if got := m.Active(); got != n {
		t.Fatalf("only %d of %d sessions alive after %v of creating (TTL %v)", got, n, time.Since(start), ttl)
	}
	per := (int64(after) - int64(before)) / n
	t.Logf("%d sessions created in %v, %d heap bytes each", n, time.Since(start), per)
	if per > bound {
		t.Errorf("%d heap bytes per idle session, want under %d", per, bound)
	}

	// Every session's TTL clock started at its pause; nothing touches
	// them again, so the reaper alone must empty the population.
	deadline := time.Now().Add(30 * time.Second)
	for m.Active() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("reaper left %d of %d idle sessions", m.Active(), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
