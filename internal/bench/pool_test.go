package bench

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunsAll: every submitted job executes exactly once and Wait
// blocks until the pool is idle.
func TestPoolRunsAll(t *testing.T) {
	p := NewPool(4)
	defer p.Drain()
	var ran atomic.Int64
	for i := 0; i < 100; i++ {
		if err := p.Submit(func() { ran.Add(1) }); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	p.Wait()
	if got := ran.Load(); got != 100 {
		t.Errorf("ran %d jobs, want 100", got)
	}
}

// TestPoolDrainReturnsQueued: with one worker held, Drain completes the
// in-flight job, returns the unstarted ones, and Submit afterwards fails
// with ErrPoolDraining.
func TestPoolDrainReturnsQueued(t *testing.T) {
	p := NewPool(1)
	started := make(chan struct{})
	release := make(chan struct{})
	var inFlightDone, queuedRan atomic.Bool
	if err := p.Submit(func() {
		close(started)
		<-release
		inFlightDone.Store(true)
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 3; i++ {
		if err := p.Submit(func() { queuedRan.Store(true) }); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan []func())
	go func() { done <- p.Drain() }()
	time.Sleep(10 * time.Millisecond) // let Drain flip the intake off
	close(release)
	var unstarted []func()
	select {
	case unstarted = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain hung")
	}

	if !inFlightDone.Load() {
		t.Error("Drain returned before the in-flight job completed")
	}
	if queuedRan.Load() {
		t.Error("a queued job ran during Drain")
	}
	if len(unstarted) != 3 {
		t.Errorf("Drain returned %d unstarted jobs, want 3", len(unstarted))
	}
	if err := p.Submit(func() {}); err != ErrPoolDraining {
		t.Errorf("Submit after Drain: err %v, want ErrPoolDraining", err)
	}
}

// TestPoolObserver: the observer sees every queued/running transition and
// ends at (0, 0) once the pool is idle.
func TestPoolObserver(t *testing.T) {
	p := NewPool(2)
	defer p.Drain()
	var mu sync.Mutex
	var lastQ, lastR, maxR int
	p.SetObserver(func(queued, running int) {
		mu.Lock()
		lastQ, lastR = queued, running
		if running > maxR {
			maxR = running
		}
		mu.Unlock()
	})
	for i := 0; i < 20; i++ {
		p.Submit(func() { time.Sleep(time.Millisecond) })
	}
	p.Wait()
	mu.Lock()
	defer mu.Unlock()
	if lastQ != 0 || lastR != 0 {
		t.Errorf("observer ended at queued=%d running=%d, want 0,0", lastQ, lastR)
	}
	if maxR < 1 || maxR > 2 {
		t.Errorf("observed max running %d, want within [1,2]", maxR)
	}
}

// TestPoolJobObserver: the per-job observer fires once per completed job
// with a plausible (wait, run) pair — the run at least as long as the
// job's sleep, and a job queued behind a busy worker charged its wait.
func TestPoolJobObserver(t *testing.T) {
	p := NewPool(1)
	defer p.Drain()
	if w := p.Workers(); w != 1 {
		t.Fatalf("Workers() = %d, want 1", w)
	}
	type sample struct{ wait, run time.Duration }
	var mu sync.Mutex
	var got []sample
	p.SetJobObserver(func(wait, run time.Duration) {
		mu.Lock()
		got = append(got, sample{wait, run})
		mu.Unlock()
	})
	const hold = 20 * time.Millisecond
	p.Submit(func() { time.Sleep(hold) })
	p.Submit(func() {}) // queued behind the first on the single worker
	p.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("job observer fired %d times, want 2", len(got))
	}
	if got[0].run < hold {
		t.Errorf("first job run %v, want >= %v", got[0].run, hold)
	}
	if got[1].wait < hold/2 {
		t.Errorf("second job wait %v, want >= %v (it was queued behind the %v hold)",
			got[1].wait, hold/2, hold)
	}
}

// TestNewPoolClampsWidth: NewPool(0) still runs jobs on one worker.
func TestNewPoolClampsWidth(t *testing.T) {
	p := NewPool(0)
	defer p.Drain()
	if w := p.Workers(); w != 1 {
		t.Errorf("Workers() after NewPool(0) = %d, want 1", w)
	}
	var ran atomic.Bool
	p.Submit(func() { ran.Store(true) })
	p.Wait()
	if !ran.Load() {
		t.Error("job did not run on the clamped pool")
	}
}

// TestIsolateRecoversPanics: Isolate converts a panic into an error and a
// clean return into nil.
func TestIsolateRecoversPanics(t *testing.T) {
	if err := Isolate(func() { panic("boom") }); err == nil {
		t.Error("Isolate swallowed a panic without reporting it")
	}
	if err := Isolate(func() {}); err != nil {
		t.Errorf("Isolate on clean fn: %v", err)
	}
}
