package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// DefaultJobs is the harness's default worker count: one per host processor.
// Every (app, procs, backend) simulation cell is an independent virtual-time
// experiment, so cells can run on separate host cores without affecting any
// virtual-time result (DESIGN.md §5b).
func DefaultJobs() int { return runtime.GOMAXPROCS(0) }

// Isolate runs fn with the harness's per-cell panic isolation: a panic in
// fn is captured and returned as an error ("panicked: <value>") instead of
// unwinding into the caller.  RunCells and the farm pool workers both wrap
// cell bodies in it, so one failing cell can never take down a sweep or a
// long-running worker.
func Isolate(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panicked: %v", r)
		}
	}()
	fn()
	return nil
}

// ErrPoolDraining is returned by Pool.Submit once Drain has begun: the pool
// no longer accepts work and the caller should treat the submission as
// retriable against a fresh pool (the farm maps it to a retriable HTTP
// status).
var ErrPoolDraining = errors.New("bench: pool is draining")

// Pool is a long-lived bounded worker pool — the persistent form of the
// RunCells harness that the simulation farm (internal/farm) keeps running
// across HTTP requests.  A fixed set of workers drains a FIFO queue of
// jobs; every job body runs under Isolate so a panicking job is swallowed
// by the submitter's own wrapper (which is where errors are recorded) and
// never kills a worker.
//
// Lifecycle: NewPool starts the workers; Submit enqueues; Wait blocks until
// the pool is momentarily idle (queue empty, nothing running); Drain stops
// intake, lets in-flight jobs complete, shuts the workers down and returns
// the jobs that never started — the graceful-drain contract the farm's
// SIGTERM path relies on (queued cells are handed back to be rejected with
// a retriable status, not silently dropped).
type Pool struct {
	mu          sync.Mutex
	cond        *sync.Cond
	queue       []poolJob
	running     int
	width       int
	draining    bool
	observer    func(queued, running int)
	jobObserver func(wait, run time.Duration)
	workers     sync.WaitGroup
}

// poolJob is one queued job with its enqueue time, so the worker that picks
// it up can report the queue wait to the job observer.
type poolJob struct {
	fn func()
	at time.Time
}

// NewPool starts a pool of the given number of workers (at least 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{width: workers}
	p.cond = sync.NewCond(&p.mu)
	p.workers.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

// Workers returns the pool's width — the worker count it was created with.
func (p *Pool) Workers() int { return p.width }

// SetObserver registers fn to be called with the pool's (queued, running)
// depths after every state transition — submit, job start, job completion,
// drain.  The farm uses it to export queue-depth and cells-running gauges.
// fn runs with the pool's mutex held, so it must be O(1) and must not call
// back into the pool.
func (p *Pool) SetObserver(fn func(queued, running int)) {
	p.mu.Lock()
	p.observer = fn
	p.mu.Unlock()
}

// SetJobObserver registers fn to be called once per completed job with the
// time the job spent queued (enqueue to worker pickup) and running (pickup
// to completion).  fn runs on the worker goroutine outside the pool's
// mutex, after the completion transition — the farm feeds its queue-wait
// and run-latency histograms from it.
func (p *Pool) SetJobObserver(fn func(wait, run time.Duration)) {
	p.mu.Lock()
	p.jobObserver = fn
	p.mu.Unlock()
}

// notifyLocked broadcasts a state transition to workers, waiters and the
// observer.  Callers hold p.mu.
func (p *Pool) notifyLocked() {
	if p.observer != nil {
		p.observer(len(p.queue), p.running)
	}
	p.cond.Broadcast()
}

// Submit enqueues fn; it returns ErrPoolDraining once Drain has begun.
func (p *Pool) Submit(fn func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return ErrPoolDraining
	}
	p.queue = append(p.queue, poolJob{fn: fn, at: time.Now()})
	p.notifyLocked()
	return nil
}

// Wait blocks until the pool is idle: the queue is empty and no job is
// running.  It does not stop the workers; more work may be submitted after.
func (p *Pool) Wait() {
	p.mu.Lock()
	for len(p.queue) > 0 || p.running > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// Stop stops intake and dispatch without waiting: Submit fails from now on
// and no queued job starts.  It returns the queued jobs (oldest first), or
// nil when the pool was already stopped.
func (p *Pool) Stop() []func() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return nil
	}
	p.draining = true
	left := make([]func(), len(p.queue))
	for i, j := range p.queue {
		left[i] = j.fn
	}
	p.queue = nil
	p.notifyLocked()
	return left
}

// Drain stops the pool, waits for every in-flight job to complete and the
// workers to exit, and returns the queued jobs that never started (oldest
// first).  Concurrent Drain calls are safe; late callers wait for the first
// drain to finish and return nil.
func (p *Pool) Drain() []func() {
	left := p.Stop()
	p.workers.Wait()
	return left
}

// worker is one pool worker: pick the oldest queued job, run it isolated,
// repeat until drain.
func (p *Pool) worker() {
	defer p.workers.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.draining {
			p.cond.Wait()
		}
		if p.draining {
			p.mu.Unlock()
			return
		}
		job := p.queue[0]
		p.queue = p.queue[1:]
		p.running++
		wait := time.Since(job.at)
		p.notifyLocked()
		p.mu.Unlock()
		// The submitter's wrapper records errors; Isolate here only keeps a
		// stray panic from killing the worker itself.
		start := time.Now()
		_ = Isolate(job.fn)
		run := time.Since(start)
		p.mu.Lock()
		p.running--
		obs := p.jobObserver
		p.notifyLocked()
		p.mu.Unlock()
		if obs != nil {
			obs(wait, run)
		}
	}
}

// RunCells executes fn(i) for each cell i in [0, n) on a bounded pool of at
// most jobs concurrent workers and returns per-cell panic errors (nil for
// cells that completed).  Determinism contract: fn(i) must write its result
// only into the i-th slot of a pre-shaped result slice, so the assembled
// output is identical whatever order cells finish in.  jobs <= 1 runs every
// cell inline on the caller's goroutine, reproducing the sequential
// harness's behavior exactly.
//
// Each cell runs with panic isolation (Isolate): one failing cell records
// its error and the rest of the sweep continues.  The parallel path is a
// transient Pool — the same worker machinery the simulation farm keeps
// alive across requests.
func RunCells(jobs, n int, fn func(i int)) []error {
	errs := make([]error, n)
	call := func(i int) {
		if err := Isolate(func() { fn(i) }); err != nil {
			errs[i] = fmt.Errorf("bench: cell %d %v", i, err)
		}
	}
	if jobs <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			call(i)
		}
		return errs
	}
	if jobs > n {
		jobs = n
	}
	p := NewPool(jobs)
	for i := 0; i < n; i++ {
		i := i
		// Submit cannot fail: nothing drains this transient pool until
		// every cell is in.
		_ = p.Submit(func() { call(i) })
	}
	p.Wait()
	p.Drain()
	return errs
}
