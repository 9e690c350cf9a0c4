package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ibox/internal/obs"
)

func TestPoolRunsJobs(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Do(context.Background(), func() error {
				n.Add(1)
				return nil
			}); err != nil {
				t.Errorf("Do: %v", err)
			}
		}()
	}
	wg.Wait()
	if n.Load() != 100 {
		t.Fatalf("ran %d jobs, want 100", n.Load())
	}
}

func TestPoolPropagatesJobError(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	want := errors.New("boom")
	if err := p.Do(context.Background(), func() error { return want }); !errors.Is(err, want) {
		t.Fatalf("Do returned %v, want %v", err, want)
	}
}

// TestPoolContextWhileQueued checks a job whose context expires before a
// worker picks it up never runs.
func TestPoolContextWhileQueued(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	go p.Do(context.Background(), func() error {
		close(started)
		<-block
		return nil
	})
	<-started // the only worker is now occupied
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := p.Do(ctx, func() error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do returned %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("job ran despite expired context")
	}
	close(block)
}

// TestPoolContextWhileRunning checks Do returns promptly when the context
// expires mid-job, while the job itself still completes on the worker.
func TestPoolContextWhileRunning(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	finished := make(chan struct{})
	entered := make(chan struct{})
	err := p.Do(ctx, func() error {
		close(entered)
		cancel()
		// Simulate work that outlives the caller's deadline.
		time.Sleep(10 * time.Millisecond)
		close(finished)
		return nil
	})
	<-entered
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do returned %v, want context.Canceled", err)
	}
	select {
	case <-finished:
	case <-time.After(time.Second):
		t.Fatal("job did not run to completion after caller gave up")
	}
}

func TestPoolClose(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // idempotent
	if err := p.Do(context.Background(), func() error { return nil }); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Do after Close returned %v, want ErrPoolClosed", err)
	}
}

// TestPoolCloseWaitsForInFlight checks Close blocks until running jobs
// finish.
func TestPoolCloseWaitsForInFlight(t *testing.T) {
	p := NewPool(1)
	var done atomic.Bool
	started := make(chan struct{})
	go p.Do(context.Background(), func() error {
		close(started)
		time.Sleep(20 * time.Millisecond)
		done.Store(true)
		return nil
	})
	<-started
	p.Close()
	if !done.Load() {
		t.Fatal("Close returned before the in-flight job finished")
	}
}

// tryGoUntil offers fn until a parked worker takes it. A fresh pool's
// workers are registered before NewPool returns but may not have reached
// their receive yet, so the first offers can legitimately miss.
func tryGoUntil(t *testing.T, p *Pool, fn func()) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !p.TryGo(fn) {
		if time.Now().After(deadline) {
			t.Fatal("TryGo never found a parked worker on an idle pool")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolTryGoHandsOff: on an idle pool TryGo hands the job to a worker
// goroutine (not the caller's) and returns without waiting for it.
func TestPoolTryGoHandsOff(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	release := make(chan struct{})
	onWorker := make(chan bool, 1)
	tryGoUntil(t, p, func() {
		onWorker <- p.workerIDs[goroutineID()] != nil
		<-release // TryGo must already have returned for this to unblock
	})
	close(release)
	select {
	case ok := <-onWorker:
		if !ok {
			t.Fatal("TryGo job ran off the pool's workers")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handed-off job never ran")
	}
}

// TestPoolTryGoBusy: with every worker busy TryGo refuses at once and
// never runs fn — it neither queues nor blocks.
func TestPoolTryGoBusy(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	go p.Do(context.Background(), func() error {
		close(started)
		<-block
		return nil
	})
	<-started // the only worker is now occupied
	var ran atomic.Bool
	for i := 0; i < 100; i++ {
		if p.TryGo(func() { ran.Store(true) }) {
			t.Fatal("TryGo accepted a job with every worker busy")
		}
	}
	close(block)
	// Had any refused job been queued, the freed worker would run it now.
	if err := p.Do(context.Background(), func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() {
		t.Fatal("a refused TryGo job ran")
	}
}

func TestPoolTryGoAfterClose(t *testing.T) {
	p := NewPool(2)
	p.Close()
	ran := false
	if p.TryGo(func() { ran = true }) {
		t.Fatal("TryGo after Close accepted a job")
	}
	if ran {
		t.Fatal("TryGo after Close ran its job")
	}
}

// TestPoolTryGoCloseWaits: Close waits for a handed-off job like any
// in-flight job, so none outlives the pool (the package's leakcheck
// TestMain fails the run on a stranded worker or job goroutine).
func TestPoolTryGoCloseWaits(t *testing.T) {
	p := NewPool(1)
	var done atomic.Bool
	started := make(chan struct{})
	tryGoUntil(t, p, func() {
		close(started)
		time.Sleep(20 * time.Millisecond)
		done.Store(true)
	})
	<-started
	p.Close()
	if !done.Load() {
		t.Fatal("Close returned before the handed-off job finished")
	}
}

// TestPoolTryGoInstrumented: TryGo jobs count in the pool's queue, wait,
// job and busy series exactly like Do jobs, and a refused offer leaves
// no trace in them.
func TestPoolTryGoInstrumented(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	p := NewPool(1)
	defer p.Close()

	if err := p.Do(context.Background(), func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	ran := make(chan struct{})
	tryGoUntil(t, p, func() { close(ran) })
	<-ran
	block := make(chan struct{})
	started := make(chan struct{})
	go p.Do(context.Background(), func() error {
		close(started)
		<-block
		return nil
	})
	<-started
	if p.TryGo(func() {}) {
		t.Fatal("TryGo accepted a job with the only worker busy")
	}
	if q := reg.Gauge("par.pool_queue").Value(); q != 0 {
		t.Fatalf("par.pool_queue = %v after a refused offer, want 0", q)
	}
	close(block)

	// A worker counts a job after fn returns, so poll for the third.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("par.pool_jobs").Value() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("par.pool_jobs = %d, want 3", reg.Counter("par.pool_jobs").Value())
		}
		time.Sleep(time.Millisecond)
	}
	if n := reg.Counter("par.pool_jobs").Value(); n != 3 {
		t.Fatalf("par.pool_jobs = %d, want 3 (two Do + one TryGo)", n)
	}
	for _, name := range []string{"par.pool_wait_ns", obs.MetricPoolBusyNs} {
		if n := reg.Histogram(name).Count(); n != 3 {
			t.Fatalf("%s count = %d, want 3", name, n)
		}
	}
	if q := reg.Gauge("par.pool_queue").Value(); q != 0 {
		t.Fatalf("par.pool_queue = %v after every job ran, want 0", q)
	}
}

// TestPoolWaiting: Waiting counts Do calls whose job no worker has
// picked up — with observability off, since a lane's helper yields by
// it — and drops as each is picked up or gives up; a refused TryGo
// never counts.
func TestPoolWaiting(t *testing.T) {
	obs.Disable()
	p := NewPool(1)
	defer p.Close()
	block := make(chan struct{})
	var unblock sync.Once
	release := func() { unblock.Do(func() { close(block) }) }
	defer release() // before Close, on failure too
	started := make(chan struct{})
	go p.Do(context.Background(), func() error {
		close(started)
		<-block
		return nil
	})
	<-started
	if p.TryGo(func() {}) || p.Waiting() != 0 {
		t.Fatalf("TryGo with the only worker busy: Waiting = %d, want 0 and a refusal", p.Waiting())
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gaveUp := make(chan error, 1)
	go func() { gaveUp <- p.Do(ctx, func() error { return nil }) }()
	ran := make(chan struct{})
	go p.Do(context.Background(), func() error {
		close(ran)
		return nil
	})
	deadline := time.Now().Add(5 * time.Second)
	for p.Waiting() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("Waiting = %d with two Do calls queued, want 2", p.Waiting())
		}
		runtime.Gosched()
	}
	cancel()
	if err := <-gaveUp; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued Do after cancel: %v, want context.Canceled", err)
	}
	if n := p.Waiting(); n != 1 {
		t.Fatalf("Waiting = %d after one waiter gave up, want 1", n)
	}
	release()
	<-ran
	if n := p.Waiting(); n != 0 {
		t.Fatalf("Waiting = %d after every job was picked up, want 0", n)
	}
}

func TestPoolWorkers(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	if p.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", p.Workers())
	}
	q := NewPool(0)
	defer q.Close()
	if q.Workers() != 1 {
		t.Fatalf("Workers() = %d, want 1 for non-positive request", q.Workers())
	}
}
