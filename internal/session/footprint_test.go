package session

import (
	"runtime"
	"testing"

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

// TestUnwatchedSessionAllocs: with no subscriber, producing and
// publishing telemetry allocates nothing — events stay flat records in a
// ring that is already at capacity, and nothing is encoded. The session
// is parked in Paused and ticked from here, exactly as its run loop would,
// so the measurement sees the virtual side alone.
func TestUnwatchedSessionAllocs(t *testing.T) {
	s, err := New(Config{
		ID: "unwatched", Kind: KindIBoxNet, Net: testNetParams(),
		Protocol: "cubic", Seed: 9, Speed: -1, Duration: 1e6 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s.Close("test")
		<-s.Done()
	}()
	if err := s.Pause(); err != nil { // the run goroutine now only waits for control ops
		t.Fatal(err)
	}
	tick := func() {
		s.step(s.sched.Now() + s.cfg.Tick)
		s.publishPending()
	}
	for i := 0; i < 400; i++ { // 20 virtual seconds: ring full, pools and slices at size
		tick()
	}
	const rounds = 200
	events := s.events.Load()
	allocs := testing.AllocsPerRun(rounds, tick)
	perTick := float64(s.events.Load()-events) / (rounds + 1)
	if perTick < 20 {
		t.Fatalf("only %.1f events per tick", perTick)
	}
	if perEvent := allocs / perTick; perEvent > 0.01 {
		t.Errorf("%.3f allocations per published event (%.1f per tick of %.0f events), want amortised 0",
			perEvent, allocs, perTick)
	}
}
