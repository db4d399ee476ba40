// Package openmp implements the runtime that an OpenMP-to-pthreads
// translator such as OdinMP emits: parallel regions backed by dynamically
// created pthreads, statically scheduled work-shared loops, critical
// sections, barriers and reductions — all expressed in terms of the CableS
// pthreads API, exactly how the paper runs OpenMP programs on the cluster
// (§3.3).  Programs written against this package are "SMP-style": the
// master initializes shared data, so placement is naive and the speedups
// mirror the paper's Table 6 rather than the tuned SPLASH-2 numbers.
package openmp

import (
	"fmt"

	"cables/internal/apps/appapi"
	cables "cables/internal/core"
	"cables/internal/memsys"
	"cables/internal/nodeos"
	"cables/internal/sim"
	"cables/internal/stats"
)

// Runtime hosts OpenMP programs on CableS.
type Runtime struct {
	rt      *cables.Runtime
	procs   int
	crit    map[string]*cables.Mutex
	nextBar int

	// pool is the pooled pthreads serving parallel regions.  Pooling is
	// what the paper suggests OdinMP-style runtimes do to amortize remote
	// thread-creation and node-attach costs ("the potential for pooling
	// threads on nodes to save time", §3.2).  An idle worker is parked;
	// the master sets region and unparks every worker, and pool worker
	// tid runs region(tid, th).  A nil region retires the pool.
	pool   []*cables.Thread
	region func(tid int, th *cables.Thread)
	// left counts the workers still inside the current region and end is
	// the latest clock among those that have left; the last worker out
	// unparks the master at end.
	left int
	end  sim.Time

	// Stats, when set, records per-operation costs (Table 5's OMP rows).
	Stats *stats.OpStats
}

// record times fn under op when Stats is attached.
func (r *Runtime) record(t *sim.Task, op string, fn func()) {
	if r.Stats == nil {
		fn()
		return
	}
	r.Stats.Time(t, op, fn)
}

// Config shapes an OpenMP run.
type Config struct {
	Procs        int
	ProcsPerNode int
}

// New builds an OpenMP runtime over a fresh CableS instance.
func New(cfg Config) *Runtime {
	if cfg.Procs <= 0 {
		panic(fmt.Sprintf("openmp: invalid processor count %d", cfg.Procs))
	}
	if cfg.ProcsPerNode <= 0 {
		cfg.ProcsPerNode = 2
	}
	nodes := (cfg.Procs + cfg.ProcsPerNode - 1) / cfg.ProcsPerNode
	rt := cables.New(cables.Config{
		MaxNodes:        nodes,
		ProcsPerNode:    cfg.ProcsPerNode,
		CoordinatorMain: true,
	})
	rt.Start()
	return &Runtime{rt: rt, procs: cfg.Procs, crit: make(map[string]*cables.Mutex)}
}

// Cluster exposes the simulated machine.
func (r *Runtime) Cluster() *nodeos.Cluster { return r.rt.Cluster() }

// Main returns the master thread's task.
func (r *Runtime) Main() *sim.Task { return r.rt.Main().Task }

// Acc returns the shared-memory accessor.
func (r *Runtime) Acc() *memsys.Accessor { return r.rt.Acc() }

// Malloc allocates shared memory (what translated global arrays become).
func (r *Runtime) Malloc(t *sim.Task, size int64) memsys.Addr {
	a, err := r.rt.Mem().Malloc(t, size)
	if err != nil {
		panic("openmp: " + err.Error())
	}
	return a
}

// OMP is the per-thread view inside a parallel region.
type OMP struct {
	r   *Runtime
	th  *cables.Thread
	tid int
	bar string
}

// Task returns the simulated execution context.
func (o *OMP) Task() *sim.Task { return o.th.Task }

// TID returns the OpenMP thread number.
func (o *OMP) TID() int { return o.tid }

// Warmup creates the region-serving thread pool up front (attaching the
// nodes), so later parallel regions measure computation rather than
// node-attach costs.  Called implicitly by the first Parallel otherwise.
func (r *Runtime) Warmup() { r.ensurePool() }

// ensurePool lazily creates the region-serving thread pool.
func (r *Runtime) ensurePool() {
	if r.pool != nil {
		return
	}
	main := r.rt.Main().Task
	r.pool = make([]*cables.Thread, r.procs)
	for tid := range r.pool {
		r.record(main, "create", func() {
			r.pool[tid] = r.rt.Create(main, func(th *cables.Thread) {
				node := r.rt.Cluster().Nodes[th.Task.NodeID]
				for {
					node.ThreadStopped() // idle between regions
					th.Task.Park()
					node.ThreadStarted()
					region := r.region
					if region != nil {
						region(tid, th)
					}
					r.leave(th.Task.Now())
					if region == nil {
						return
					}
				}
			})
		})
	}
}

// dispatch runs region on every pool worker from instant start and parks
// the master until the last of them has left; it returns that worker's
// clock.
func (r *Runtime) dispatch(start sim.Time, region func(tid int, th *cables.Thread)) sim.Time {
	r.region, r.left, r.end = region, len(r.pool), start
	for _, th := range r.pool {
		th.Task.Unpark(start)
	}
	return r.rt.Main().Task.Park()
}

// leave records a worker leaving the current region at instant now; the
// last one out unparks the master at the latest such instant.
func (r *Runtime) leave(now sim.Time) {
	r.end = max(r.end, now)
	r.left--
	if r.left == 0 {
		r.rt.Main().Task.Unpark(r.end)
	}
}

// Parallel runs body on Procs() pooled pthreads — the translation of
// `#pragma omp parallel`.
func (r *Runtime) Parallel(body func(o *OMP)) {
	main := r.rt.Main().Task
	r.ensurePool()
	r.nextBar++
	bar := fmt.Sprintf("omp.%d", r.nextBar)
	start := main.Now()
	r.rt.Cluster().Ctr.Add(main.NodeID, stats.EvAdminRequests, int64(len(r.pool)))
	end := r.dispatch(start, func(tid int, th *cables.Thread) {
		th.Task.WaitUntil(start) // region dispatch message
		body(&OMP{r: r, th: th, tid: tid, bar: bar})
	})
	main.WaitUntil(end)
}

// Close retires the pool (end of program).
func (r *Runtime) Close() {
	if len(r.pool) > 0 {
		r.dispatch(r.rt.Main().Task.Now(), nil)
	}
	r.pool = nil
}

// For executes a statically scheduled work-shared loop over [lo,hi) with an
// implicit closing barrier — `#pragma omp for`.
func (o *OMP) For(lo, hi int, body func(i int)) {
	o.ForNowait(lo, hi, body)
	o.Barrier()
}

// ForNowait is `#pragma omp for nowait`: thread tid runs its block of
// [lo,hi) (appapi.Share), with no closing barrier.
func (o *OMP) ForNowait(lo, hi int, body func(i int)) {
	myLo, myHi := appapi.Share(hi-lo, o.r.procs, o.tid)
	for i := lo + myLo; i < lo+myHi; i++ {
		body(i)
	}
}

// Barrier is `#pragma omp barrier`, mapped onto the pthread_barrier
// extension.
func (o *OMP) Barrier() {
	o.r.record(o.th.Task, "barrier", func() {
		o.r.rt.Barrier(o.th.Task, o.bar, o.r.procs)
	})
}

// Critical runs body under the named critical section's mutex.
func (o *OMP) Critical(name string, body func()) {
	mx, ok := o.r.crit[name]
	if !ok {
		mx = o.r.rt.NewMutex(o.th.Task)
		o.r.crit[name] = mx
	}
	o.r.record(o.th.Task, "mutex_lock", func() { mx.Lock(o.th.Task) })
	body()
	o.r.record(o.th.Task, "mutex_unlock", func() { mx.Unlock(o.th.Task) })
}

// Finish reports the application's virtual end time.
func (r *Runtime) Finish() sim.Time { return r.rt.End(r.rt.Main().Task) }

// Misplacement reports the Figure 6 metric for the run.
func (r *Runtime) Misplacement() (int, int) {
	return r.rt.Acc().Sp.MisplacedPages()
}

// Result assembles an appapi.Result for reporting.
func (r *Runtime) Result(app string, parallel sim.Time, checksum float64) appapi.Result {
	mis, tot := r.Misplacement()
	return appapi.Result{
		App: app, Backend: "openmp/cables", Procs: r.procs,
		Total: r.Finish(), Parallel: parallel, Checksum: checksum,
		Misplaced: mis, Touched: tot,
	}
}
