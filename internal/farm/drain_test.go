package farm

import (
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"cables/internal/bench"
)

// waitGoroutines polls until the goroutine count returns to at most base
// (plus slack for runtime helpers) — a goleak-style leak check with a
// deadline instead of a snapshot race.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// TestDrainCompletesInFlightRejectsQueued: with one worker and a held cell,
// Drain must let the running cell finish, reject every still-queued cell
// with a retriable status, and refuse new sweeps with a retriable 503.
func TestDrainCompletesInFlightRejectsQueued(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := New(Config{Jobs: 1})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.runCell = func(k bench.Cell) *CellResult {
		started <- struct{}{}
		<-release
		return &CellResult{}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Three distinct cells on one worker: the first runs, two sit queued.
	sv := postSweep(t, ts, `{"apps":["FFT","LU","RADIX"],"procs":[1],"backends":["genima"],"scale":"test"}`)
	<-started

	drained := make(chan struct{})
	go func() { srv.Drain(); close(drained) }()

	// Intake must turn away new work retriably while the drain is pending.
	// Post only once the drain has begun, so no probe sweep is admitted
	// ahead of it and the counters below stay exact.
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for {
		resp, err := ts.Client().Post(ts.URL+"/v1/sweeps", "application/json",
			strings.NewReader(`{"apps":["OCEAN"],"procs":[1],"backends":["genima"],"scale":"test"}`))
		if err != nil {
			t.Fatalf("POST during drain: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("draining 503 missing Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("intake never started refusing during drain (last status %d)", resp.StatusCode)
		}
		time.Sleep(2 * time.Millisecond)
	}

	close(release)
	<-drained

	final := getSweep(t, ts, sv.ID)
	if final.Status != "drained" {
		t.Errorf("sweep status %q, want drained", final.Status)
	}
	var done, rejected int
	for _, c := range final.Cells {
		switch c.Status {
		case CellDone:
			done++
		case CellRejected:
			rejected++
			if !c.Retriable {
				t.Errorf("rejected cell %s/%d not marked retriable", c.App, c.Procs)
			}
		default:
			t.Errorf("cell %s/%d left in state %s after drain", c.App, c.Procs, c.Status)
		}
	}
	if done != 1 || rejected != 2 {
		t.Errorf("done=%d rejected=%d, want 1 in-flight completed and 2 queued rejected", done, rejected)
	}

	m := srv.metrics
	if r, d := m.cellsRejected.Load(), m.cellsDone.Load(); r != 2 || d != 1 {
		t.Errorf("terminal counters after drain: rejected %d done %d, want 2 and 1", r, d)
	}
	if q, r := m.queueDepth.Load(), m.cellsRunning.Load(); q != 0 || r != 0 {
		t.Errorf("gauges nonzero after drain: queueDepth %d cellsRunning %d", q, r)
	}
	admissionInvariant(t, srv)
	terminalInvariant(t, srv)

	ts.Close()
	waitGoroutines(t, base)
}

// TestDrainIdempotent: draining twice (or concurrently) must not hang or
// double-reject.
func TestDrainIdempotent(t *testing.T) {
	srv := New(Config{Jobs: 2})
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() { srv.Drain(); done <- struct{}{} }()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("concurrent Drain hung")
		}
	}
	if !srv.Draining() {
		t.Error("Draining() false after Drain")
	}
}

// TestServeSigtermDrain: DrainOnSignal must run the full drain when the
// process receives SIGTERM, releasing waiters and all worker goroutines.
func TestServeSigtermDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := New(Config{Jobs: 2})
	srv.runCell = func(k bench.Cell) *CellResult { return &CellResult{} }
	ts := httptest.NewServer(srv.Handler())
	waitSweep(t, ts, postSweep(t, ts, `{"apps":["FFT"],"procs":[1],"backends":["genima"],"scale":"test"}`).ID)

	drained := srv.DrainOnSignal(syscall.SIGTERM)
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("SIGTERM did not drain the farm")
	}
	if !srv.Draining() {
		t.Error("Draining() false after signal drain")
	}
	ts.Close()
	waitGoroutines(t, base)
}

// TestQueueBoundRejectsSweeps: a sweep whose new simulations would exceed
// MaxQueue is turned away retriably as a unit — no partial admission —
// while a sweep that queues nothing (cache hits, duplicates of in-flight
// cells) is admitted however full the queue is.
func TestQueueBoundRejectsSweeps(t *testing.T) {
	srv := New(Config{Jobs: 1, MaxQueue: 2})
	release := make(chan struct{})
	srv.runCell = func(k bench.Cell) *CellResult {
		if k.App != "VOLREND" {
			<-release
		}
		return &CellResult{}
	}
	// Cleanups run after defers: release the worker first, then drain.
	t.Cleanup(func() { srv.Drain() })
	defer close(release)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Two cells that complete at once fill the cache.
	hits := `{"apps":["VOLREND"],"procs":[1,4],"backends":["genima"],"scale":"test"}`
	waitSweep(t, ts, postSweep(t, ts, hits).ID)

	// One cell runs, filling the single worker; a second cell occupies the
	// whole queue allowance.
	held := `{"apps":["FFT","LU"],"procs":[1],"backends":["genima"],"scale":"test"}`
	postSweep(t, ts, held)

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := ts.Client().Post(ts.URL+"/v1/sweeps", "application/json",
			strings.NewReader(`{"apps":["RADIX","OCEAN"],"procs":[1],"backends":["genima"],"scale":"test"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("over-bound sweep accepted (status %d)", resp.StatusCode)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := srv.metrics.sweepsRejected.Load(); got < 1 {
		t.Errorf("sweepsRejected = %d, want >= 1", got)
	}

	// With the queue full, sweeps that queue nothing are still admitted.
	misses := srv.metrics.cacheMisses.Load()
	for _, spec := range []string{hits, held} {
		sv := postSweep(t, ts, spec)
		if n := len(sv.Cells); n != 2 {
			t.Errorf("sweep %s: %d cells, want 2", spec, n)
		}
	}
	if got := srv.metrics.cacheMisses.Load(); got != misses {
		t.Errorf("queue-free sweeps simulated cells: misses %d -> %d", misses, got)
	}
	if got := srv.metrics.cacheHits.Load(); got != 2 {
		t.Errorf("cacheHits = %d, want 2", got)
	}
}
