package session

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"sync"
	"testing"
	"time"

	"ibox/internal/iboxml"
	"ibox/internal/iboxnet"
	"ibox/internal/par"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// testNetParams is a synthetic learnt path: 10 Mbit/s, 20 ms, a queue
// worth ~24 packets, and a ramping cross-traffic series.
func testNetParams() iboxnet.Params {
	ct := trace.NewSeries(0, 100*sim.Millisecond, 50)
	for i := range ct.Vals {
		ct.Vals[i] = float64(300 * i)
	}
	return iboxnet.Params{
		Bandwidth:    1.25e6,
		PropDelay:    20 * sim.Millisecond,
		BufferBytes:  36000,
		CrossTraffic: ct,
		LossRate:     0.01,
	}
}

// trainMLOnce caches one tiny trained checkpoint across tests (the
// same construction the serve tests use).
var trainMLOnce = struct {
	sync.Once
	m   *iboxml.Model
	err error
}{}

func trainedML(t testing.TB) *iboxml.Model {
	t.Helper()
	trainMLOnce.Do(func() {
		rng := sim.NewRand(3, 5)
		var samples []iboxml.TrainingSample
		for i := int64(0); i < 2; i++ {
			tr := &trace.Trace{Protocol: "synth"}
			var now sim.Time
			for seq := int64(0); now < 4*sim.Second; seq++ {
				phase := 2 * math.Pi * now.Seconds() / 4
				rate := 156_250 * (1.25 + math.Sin(phase+float64(i)))
				now += sim.Time(1500 / rate * float64(sim.Second))
				delayMs := 20 + 40*math.Abs(math.Sin(phase)) + rng.NormFloat64()
				if delayMs < 1 {
					delayMs = 1
				}
				tr.Packets = append(tr.Packets, trace.Packet{
					Seq: seq, Size: 1500, SendTime: now,
					RecvTime: now + sim.Time(delayMs*float64(sim.Millisecond)),
				})
			}
			samples = append(samples, iboxml.TrainingSample{Trace: tr})
		}
		trainMLOnce.m, trainMLOnce.err = iboxml.Train(samples, iboxml.Config{
			Hidden: 8, Layers: 1, Epochs: 2, Seed: 5,
		})
	})
	if trainMLOnce.err != nil {
		t.Fatalf("train: %v", trainMLOnce.err)
	}
	return trainMLOnce.m
}

// collect drains a session's full event stream from the beginning.
func collect(t testing.TB, s *Session) [][]byte {
	t.Helper()
	sub := s.Subscribe(0)
	defer sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var all [][]byte
	for {
		batch, gap, err := sub.Next(ctx)
		if errors.Is(err, io.EOF) {
			return all
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if gap {
			t.Fatalf("unexpected gap in stream after %d events", len(all))
		}
		all = append(all, batch...)
	}
}

// runToEnd creates an unpaced session and returns its full stream.
func runToEnd(t testing.TB, cfg Config) [][]byte {
	t.Helper()
	cfg.Speed = -1 // unpaced
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stream := collect(t, s)
	<-s.Done()
	return stream
}

func joinStream(events [][]byte) []byte {
	return bytes.Join(events, []byte("\n"))
}

// TestSessionDeterministic proves the tentpole determinism contract:
// the same (checkpoint, sender, seed) produces a byte-identical
// telemetry stream across runs and across serial vs pooled stepping,
// for both artifact kinds.
func TestSessionDeterministic(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()

	cases := []struct {
		name string
		cfg  Config
	}{
		{"iboxnet", Config{
			ID: "d1", Kind: KindIBoxNet, Net: testNetParams(),
			Protocol: "cubic", Seed: 42, Duration: 3 * sim.Second,
			RingSize: 1 << 16,
		}},
		{"iboxml", Config{
			ID: "d2", Kind: KindIBoxML, ML: trainedML(t),
			Protocol: "vegas", Seed: 7, Duration: 2 * sim.Second,
			RingSize: 1 << 16,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := runToEnd(t, tc.cfg)
			again := runToEnd(t, tc.cfg)
			pooled := tc.cfg
			pooled.Pool = pool
			onPool := runToEnd(t, pooled)

			if len(serial) < 100 {
				t.Fatalf("expected a substantial stream, got %d events", len(serial))
			}
			if !bytes.Equal(joinStream(serial), joinStream(again)) {
				t.Fatalf("two serial runs differ (%d vs %d events)", len(serial), len(again))
			}
			if !bytes.Equal(joinStream(serial), joinStream(onPool)) {
				t.Fatalf("serial vs pooled streams differ (%d vs %d events)", len(serial), len(onPool))
			}
		})
	}
}

// TestUnpacedStepJob: an unpaced iBoxNet session at the default tick
// steps unpacedTicksPerJob ticks per job, on a pool or not, publishing
// each tick's events; a paced session, one at another tick, an iBoxML
// session, and an iBoxNet session after a swap to iBoxML step one.
func TestUnpacedStepJob(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Close()
	ml := &ModelSwap{Checkpoint: "ml", Kind: KindIBoxML, ML: trainedML(t)}
	for _, c := range []struct {
		name  string
		kind  string
		speed float64
		tick  sim.Time
		pool  *par.Pool
		swap  *ModelSwap
		ticks int
	}{
		{"unpaced on a pool", KindIBoxNet, -1, 0, pool, nil, unpacedTicksPerJob},
		{"unpaced without a pool", KindIBoxNet, -1, 0, nil, nil, unpacedTicksPerJob},
		{"paced", KindIBoxNet, 20, 0, pool, nil, 1},
		{"other tick", KindIBoxNet, -1, 20 * sim.Millisecond, pool, nil, 1},
		{"iboxml", KindIBoxML, -1, 0, pool, nil, 1},
		{"swapped to iboxml", KindIBoxNet, -1, 0, pool, ml, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := build(Config{
				ID: "job", Kind: c.kind, Net: testNetParams(), ML: trainedML(t),
				Protocol: "cubic", Seed: 3, Speed: c.speed, Tick: c.tick, Duration: 10 * sim.Second, Pool: c.pool,
			})
			if err != nil {
				t.Fatal(err)
			}
			if c.swap != nil {
				if _, err := s.applyMutation(Mutation{Swap: c.swap}); err != nil {
					t.Fatal(err)
				}
			}
			for job := 1; job <= 5; job++ {
				from, published := s.sched.Now(), s.events.Load()
				reached := s.step(from + s.cfg.Tick)
				if want := from + sim.Time(c.ticks)*s.cfg.Tick; reached != want || s.sched.Now() != want {
					t.Fatalf("job %d from %v: reached %v (clock %v), want %v", job, from, reached, s.sched.Now(), want)
				}
				// Every tick but the job's last is published inside the
				// job; the run loop publishes the last.
				if got := s.events.Load() != published; got != (c.ticks > 1) {
					t.Fatalf("job %d of %d ticks: published inside the job = %v", job, c.ticks, got)
				}
				s.publishPending()
			}
		})
	}
}

// TestUnpacedPooledControl: control ops reach an unpaced session whose
// pool jobs step several ticks, from goroutines of their own while a
// subscriber reads: every mutation lands and is echoed in order, pause
// holds virtual time, and the stream stays contiguous to its end.
func TestUnpacedPooledControl(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	s, err := New(Config{
		ID: "pooled", Kind: KindIBoxNet, Net: testNetParams(), Protocol: "cubic",
		Seed: 5, Speed: -1, Duration: 1e6 * sim.Second, RingSize: 1 << 16, Pool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	const mutations = 20
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < mutations/2; i++ {
					if err := s.Mutate(Mutation{BandwidthScale: 1.01}); err != nil {
						t.Errorf("mutate: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := s.Pause(); err != nil {
			t.Errorf("pause: %v", err)
		}
		vt := s.Info().VTSeconds
		time.Sleep(20 * time.Millisecond)
		if now := s.Info().VTSeconds; now != vt {
			t.Errorf("virtual time moved while paused: %v → %v", vt, now)
		}
		if err := s.Resume(); err != nil {
			t.Errorf("resume: %v", err)
		}
		if err := s.Close("client"); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	stream := collect(t, s)
	<-done
	seen := 0
	for i, b := range stream {
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			t.Fatalf("bad event %s: %v", b, err)
		}
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Type == EventMutate {
			seen++
		}
	}
	if seen != mutations {
		t.Fatalf("%d mutate events, want %d", seen, mutations)
	}
}

// TestSessionLifecycleAndMutation drives one session through the full
// state machine: run, mutate (bandwidth halved + loss burst), observe
// the sender's cwnd respond, pause, resume, close.
func TestSessionLifecycleAndMutation(t *testing.T) {
	// Paced at 100× so the session visibly runs but cannot complete its
	// 10-minute virtual duration inside the test; one packet event in ten
	// so the reader below (which decodes every event) keeps up with it
	// even under the race detector.
	s, err := New(Config{
		ID: "life", Kind: KindIBoxNet, Net: testNetParams(),
		Protocol: "cubic", Seed: 1, Duration: 600 * sim.Second,
		Speed: 100, RingSize: 1 << 16, PacketEvery: 10,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		s.Close("test")
		<-s.Done()
	}()

	sub := s.Subscribe(0)
	defer sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Let it run, then mutate: halve the bandwidth and inject a loss
	// burst — the sender's window must come down.
	// waitSummaries reads on until it has seen n summaries — counting, when
	// afterMutate is set, only those that follow the mutate event in the
	// stream: the session does not wait for its subscriber, so how far the
	// reader lags behind the mutation is a matter of scheduling.
	waitSummaries := func(n int, afterMutate bool) (cwndSum float64, count int) {
		for count < n {
			batch, _, err := sub.Next(ctx)
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			for _, b := range batch {
				var ev Event
				if err := json.Unmarshal(b, &ev); err != nil {
					t.Fatalf("bad event %s: %v", b, err)
				}
				switch {
				case ev.Type == EventMutate:
					afterMutate = false
				case ev.Type == EventSummary && !afterMutate:
					cwndSum += float64(ev.Summary.Cwnd)
					count++
				}
			}
		}
		return cwndSum, count
	}
	beforeSum, beforeN := waitSummaries(20, false)

	loss := 0.2
	if err := s.Mutate(Mutation{
		BandwidthScale: 0.5,
		LossRate:       &loss,
		LossBurstS:     5,
	}); err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	if got := s.Info().Mutations; got != 1 {
		t.Fatalf("Mutations = %d, want 1", got)
	}
	afterSum, afterN := waitSummaries(20, true)
	before, after := beforeSum/float64(beforeN), afterSum/float64(afterN)
	if after >= before {
		t.Errorf("mean cwnd did not drop after bandwidth×0.5 + loss burst: before %.1f, after %.1f", before, after)
	}

	// Pause freezes virtual time.
	if err := s.Pause(); err != nil {
		t.Fatalf("Pause: %v", err)
	}
	if st := s.State(); st != Paused {
		t.Fatalf("state = %v, want paused", st)
	}
	vt1 := s.Info().VTSeconds
	time.Sleep(50 * time.Millisecond)
	if vt2 := s.Info().VTSeconds; vt2 != vt1 {
		t.Fatalf("virtual time advanced while paused: %v -> %v", vt1, vt2)
	}
	if err := s.Resume(); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	waitSummaries(2, false) // proves it advances again

	if err := s.Close("client"); err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-s.Done()
	if st := s.State(); st != Closed {
		t.Fatalf("state = %v, want closed", st)
	}
	// Double close is a no-op.
	if err := s.Close("again"); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The stream drains to EOF.
	for {
		_, _, err := sub.Next(ctx)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("Next after close: %v", err)
		}
	}
}

// TestSessionCheckpointSwap swaps the artifact mid-session and keeps
// streaming.
func TestSessionCheckpointSwap(t *testing.T) {
	s, err := New(Config{
		ID: "swap", Kind: KindIBoxNet, Net: testNetParams(),
		Checkpoint: "a.json", Protocol: "reno", Seed: 3,
		Duration: 600 * sim.Second, Speed: 100, RingSize: 1 << 16,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		s.Close("test")
		<-s.Done()
	}()

	// Subscribe before mutating so the mutate event cannot be lost to
	// ring overwrite.
	sub := s.Subscribe(0)
	defer sub.Close()

	swapped := testNetParams()
	swapped.PropDelay = 60 * sim.Millisecond
	if err := s.Mutate(Mutation{Swap: &ModelSwap{
		Checkpoint: "b.json", Kind: KindIBoxNet, Net: swapped,
	}}); err != nil {
		t.Fatalf("swap: %v", err)
	}
	if got := s.Info().Checkpoint; got != "b.json" {
		t.Fatalf("Info.Checkpoint = %q, want b.json", got)
	}

	// Delay floor on fresh packets reflects the new path's RTT.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sawMutate := false
	sawVT := 0.0
	var ev Event
	for {
		batch, _, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		for _, b := range batch {
			if err := json.Unmarshal(b, &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Type == EventMutate {
				if ev.Mutation.Checkpoint != "b.json" {
					t.Fatalf("mutate event checkpoint = %q", ev.Mutation.Checkpoint)
				}
				sawMutate, sawVT = true, ev.VT
			}
			// A packet sent well after the swap (past the old path's
			// in-flight tail) must see the new propagation delay.
			if sawMutate && ev.Type == EventPacket && ev.VT > sawVT+1 {
				if ev.Packet.DelayMs < 59 {
					t.Fatalf("post-swap delay %.1f ms < new prop delay", ev.Packet.DelayMs)
				}
				return
			}
		}
	}
}

// TestSessionInfoDuringSwapRace hammers Info (the GET /sessions and
// /statusz read path) from several goroutines while the run goroutine
// applies checkpoint swaps, under the race detector. Info must always
// see a consistent (kind, checkpoint) pair: both are rewritten under
// infoMu by applyMutation.
func TestSessionInfoDuringSwapRace(t *testing.T) {
	ml := trainedML(t)
	s, err := New(Config{
		ID: "inforace", Kind: KindIBoxNet, Net: testNetParams(),
		Checkpoint: "net.json", Protocol: "cubic", Seed: 6,
		Duration: 600 * sim.Second, Speed: 100, RingSize: 1 << 16,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		s.Close("test")
		<-s.Done()
	}()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				in := s.Info()
				wantCkpt := "net.json"
				if in.Kind == KindIBoxML {
					wantCkpt = "ml.json"
				}
				if in.Checkpoint != wantCkpt {
					t.Errorf("Info saw torn swap: kind %q with checkpoint %q", in.Kind, in.Checkpoint)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		var mu Mutation
		if i%2 == 0 {
			mu = Mutation{Swap: &ModelSwap{Checkpoint: "ml.json", Kind: KindIBoxML, ML: ml}}
		} else {
			mu = Mutation{Swap: &ModelSwap{Checkpoint: "net.json", Kind: KindIBoxNet, Net: testNetParams()}}
		}
		if err := s.Mutate(mu); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
}

// TestMutationValidation rejects nonsense.
func TestMutationValidation(t *testing.T) {
	bad := -0.5
	for _, mu := range []Mutation{
		{},
		{BandwidthScale: -1},
		{LossRate: &bad},
	} {
		if err := (&mu).validate(); err == nil {
			t.Errorf("mutation %+v validated", mu)
		}
	}
}

// TestManagerCapsAndReaper exercises admission caps, idle-TTL reaping,
// and drain.
func TestManagerCapsAndReaper(t *testing.T) {
	m := NewManager(Limits{MaxSessions: 3, MaxPerTenant: 2, TTL: -1}, nil)
	defer m.Shutdown()

	mk := func(tenant string) (*Session, error) {
		return m.Create(Config{
			Kind: KindIBoxNet, Net: testNetParams(), Tenant: tenant,
			Protocol: "cubic", Seed: 1, Duration: 300 * sim.Second,
			// Slow pacing: the session barely advances during the test.
			Speed: 0.01,
		})
	}
	a1, err := mk("a")
	if err != nil {
		t.Fatalf("create a1: %v", err)
	}
	if _, err := mk("a"); err != nil {
		t.Fatalf("create a2: %v", err)
	}
	if _, err := mk("a"); !errors.Is(err, ErrTenantLimit) {
		t.Fatalf("third tenant-a session: err = %v, want tenant limit", err)
	}
	if _, err := mk("b"); err != nil {
		t.Fatalf("create b1: %v", err)
	}
	if _, err := mk("c"); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("fourth session: err = %v, want session limit", err)
	}
	if got := m.Active(); got != 3 {
		t.Fatalf("Active = %d, want 3", got)
	}
	if got := len(m.List()); got != 3 {
		t.Fatalf("List = %d sessions, want 3", got)
	}

	// Closing frees the slot for the capped tenant.
	if err := a1.Close("test"); err != nil {
		t.Fatalf("close a1: %v", err)
	}
	<-a1.Done()
	if _, err := m.Get(a1.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("closed session still listed: %v", err)
	}
	if _, err := mk("a"); err != nil {
		t.Fatalf("create after close: %v", err)
	}

	// The reaper expires idle (unwatched) sessions, and only those.
	m2 := NewManager(Limits{MaxSessions: 8, TTL: time.Minute}, nil)
	defer m2.Shutdown()
	idle, err := m2.Create(Config{
		Kind: KindIBoxNet, Net: testNetParams(),
		Protocol: "cubic", Seed: 2, Duration: 300 * sim.Second, Speed: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	watched, err := m2.Create(Config{
		Kind: KindIBoxNet, Net: testNetParams(),
		Protocol: "cubic", Seed: 3, Duration: 300 * sim.Second, Speed: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	sub := watched.Subscribe(0)
	defer sub.Close()

	m2.reapOnceNow(time.Now().Add(2 * time.Minute))
	<-idle.Done()
	if st := idle.State(); st != Expired {
		t.Fatalf("idle session state = %v, want expired", st)
	}
	if watched.State().terminal() {
		t.Fatal("watched session was reaped")
	}
	if got := m2.Active(); got != 1 {
		t.Fatalf("Active after reap = %d, want 1", got)
	}
}

// TestManagerCreateDuplicateIDRace: concurrent Creates with the same
// explicit id must admit exactly one session — the id is reserved in
// the same critical section as the dup check, so the losers cannot
// overwrite the winner in the session map and corrupt slot accounting.
func TestManagerCreateDuplicateIDRace(t *testing.T) {
	m := NewManager(Limits{MaxSessions: 16, TTL: -1}, nil)
	defer m.Shutdown()

	cfg := Config{
		ID: "dup", Kind: KindIBoxNet, Net: testNetParams(),
		Protocol: "cubic", Seed: 1, Duration: 300 * sim.Second, Speed: 0.01,
	}
	const n = 8
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = m.Create(cfg)
		}(i)
	}
	wg.Wait()
	created := 0
	for _, err := range errs {
		if err == nil {
			created++
		}
	}
	if created != 1 {
		t.Fatalf("%d of %d same-id Creates succeeded, want exactly 1", created, n)
	}
	if got := m.Active(); got != 1 {
		t.Fatalf("Active = %d, want 1", got)
	}

	// The losers' failures released their reservations: closing the
	// winner frees the id and its slot for reuse.
	s, err := m.Get("dup")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close("test"); err != nil {
		t.Fatal(err)
	}
	<-s.Done()
	s2, err := m.Create(cfg)
	if err != nil {
		t.Fatalf("recreate after close: %v", err)
	}
	if err := s2.Close("test"); err != nil {
		t.Fatal(err)
	}
	<-s2.Done()
}

// TestExpireRecheckSparesActiveSession: the reaper decides a session is
// idle under the manager lock but expires it afterwards; a subscriber
// (or any control-plane touch) landing in that window must abort the
// expiry rather than have its just-opened stream cut.
func TestExpireRecheckSparesActiveSession(t *testing.T) {
	s, err := New(Config{
		ID: "recheck", Kind: KindIBoxNet, Net: testNetParams(),
		Protocol: "cubic", Seed: 8, Duration: 300 * sim.Second, Speed: 0.01,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		s.Close("test")
		<-s.Done()
	}()
	ttl := time.Minute

	// A subscriber attached after the scan: the re-check sees it.
	sub := s.Subscribe(0)
	s.expire(time.Now().Add(2*time.Minute), ttl)
	if s.State().terminal() {
		t.Fatal("expire reaped a watched session")
	}

	// Unwatched but touched after the scan: still spared.
	sub.Close()
	s.touch()
	s.expire(time.Now(), ttl)
	if s.State().terminal() {
		t.Fatal("expire reaped a freshly touched session")
	}

	// Genuinely idle: expires.
	s.expire(time.Now().Add(2*time.Minute), ttl)
	<-s.Done()
	if st := s.State(); st != Expired {
		t.Fatalf("state = %v, want expired", st)
	}
}

// TestManagerDrain shuts every session down.
func TestManagerDrain(t *testing.T) {
	m := NewManager(Limits{MaxSessions: 4, TTL: -1}, nil)
	s, err := m.Create(Config{
		Kind: KindIBoxNet, Net: testNetParams(), Checkpoint: "prof.json",
		Protocol: "bbr", Seed: 9, Duration: 300 * sim.Second, Speed: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Shutdown()
	<-s.Done()
	if st := s.State(); st != Closed {
		t.Fatalf("state after drain = %v, want closed", st)
	}

	// A drained manager refuses new sessions.
	if _, err := m.Create(Config{
		Kind: KindIBoxNet, Net: testNetParams(), Protocol: "cubic",
		Seed: 1, Duration: sim.Second,
	}); !errors.Is(err, ErrDraining) {
		t.Fatalf("create after drain: err = %v, want draining", err)
	}
}

// TestRingGapReporting: a subscriber further behind than the ring
// retains learns about the loss.
func TestRingGapReporting(t *testing.T) {
	r := newRing(4)
	for seq := int64(1); seq <= 10; seq++ {
		r.publish([]record{{kind: recLoss, n: [5]int64{seq}}})
	}
	batch, next, gap, _, _ := r.since(0)
	if !gap {
		t.Fatal("expected gap after overwrite")
	}
	if len(batch) != 4 || next != 10 {
		t.Fatalf("since(0) = %d events, next %d", len(batch), next)
	}
	// A current subscriber sees no gap.
	if _, _, gap, _, _ := r.since(10); gap {
		t.Fatal("caught-up subscriber reported a gap")
	}
}

// TestRingIndexArithmetic checks since against a plain model through
// growth, the switch to overwriting at capacity, and wrap-around: for any
// cursor it must return exactly the retained events after it, in order,
// numbered contiguously, flagging a gap only when the cursor's successor
// has been overwritten. Batches mix in records JSON cannot carry (NaN or
// ±Inf in any float), which publish must drop before numbering: it
// reports only the finite records, and they alone take the seqs.
func TestRingIndexArithmetic(t *testing.T) {
	const capacity = 100 // not a power of two, and above ringInitial: grows 64 → 100
	r := newRing(capacity)
	rng := sim.NewRand(3, 1)
	var last int64
	check := func(after int64) {
		t.Helper()
		batch, next, gap, closed, wait := r.since(after)
		oldest := max(last-capacity+1, 1)
		from := max(after+1, oldest)
		wantN := max(int(last-from+1), 0)
		if len(batch) != wantN || closed {
			t.Fatalf("since(%d) with events %d..%d: %d events, closed=%v; want %d", after, oldest, last, len(batch), closed, wantN)
		}
		if wantGap := wantN > 0 && after+1 < oldest; gap != wantGap {
			t.Fatalf("since(%d) with events %d..%d: gap=%v", after, oldest, last, gap)
		}
		if wantN == 0 {
			if next != after || wait == nil {
				t.Fatalf("since(%d) with nothing new: next=%d, wait=%v", after, next, wait)
			}
			return
		}
		if next != last {
			t.Fatalf("since(%d): next=%d, want %d", after, next, last)
		}
		for i, b := range batch {
			var ev Event
			if err := json.Unmarshal(b, &ev); err != nil {
				t.Fatalf("bad event %s: %v", b, err)
			}
			// Each record was published carrying its own number.
			if seq := from + int64(i); ev.Seq != seq || ev.Loss == nil || ev.Loss.Seq != seq {
				t.Fatalf("since(%d) event %d: %s, want seq %d", after, i, b, seq)
			}
		}
	}
	nonFinite := []func(*record){
		func(r *record) { r.vt = math.NaN() },
		func(r *record) { r.x[0] = math.Inf(1) },
		func(r *record) { r.x[1] = math.Inf(-1) },
	}
	check(0)
	for last < 1000 {
		n := rng.Intn(40) // finite records; a batch may hold none
		var recs []record
		for i := 0; i < n; i++ {
			for rng.Intn(4) == 0 {
				bad := record{kind: recLoss, n: [5]int64{-1}}
				nonFinite[rng.Intn(len(nonFinite))](&bad)
				recs = append(recs, bad)
			}
			recs = append(recs, record{kind: recLoss, n: [5]int64{last + int64(i) + 1}})
		}
		if rng.Intn(2) == 0 {
			bad := record{kind: recLoss, n: [5]int64{-1}}
			nonFinite[rng.Intn(len(nonFinite))](&bad)
			recs = append(recs, bad)
		}
		if got := r.publish(recs); got != n {
			t.Fatalf("publish of %d records, %d finite: reported %d", len(recs), n, got)
		}
		last += int64(n)
		if r.last != last {
			t.Fatalf("after publish: last = %d, want %d", r.last, last)
		}
		for _, after := range []int64{0, last - capacity - 1, last - capacity, last - capacity + 1, last - int64(rng.Intn(capacity)), last - 1, last, last + 5} {
			check(max(after, 0))
		}
	}
	if len(r.buf) != capacity {
		t.Fatalf("ring grew to %d records, capacity is %d", len(r.buf), capacity)
	}
}
