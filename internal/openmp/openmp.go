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
	"sync"

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
	mu      sync.Mutex
	crit    map[string]*cables.Mutex
	nextBar int
	pool    []*poolWorker

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

// poolWorker is one pooled pthread serving parallel regions.  Pooling is
// what the paper suggests OdinMP-style runtimes do to amortize remote
// thread-creation and node-attach costs ("the potential for pooling threads
// on nodes to save time", §3.2).
type poolWorker struct {
	th   *cables.Thread
	work chan func(th *cables.Thread)
	done chan sim.Time
}

// Config shapes an OpenMP run.
type Config struct {
	Procs        int
	ProcsPerNode int
	ArenaBytes   int64
	Costs        *sim.Costs
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
		ArenaBytes:      cfg.ArenaBytes,
		Costs:           cfg.Costs,
		CoordinatorMain: true,
	})
	rt.Start()
	return &Runtime{rt: rt, procs: cfg.Procs, crit: make(map[string]*cables.Mutex)}
}

// Cables exposes the underlying CableS runtime.
func (r *Runtime) Cables() *cables.Runtime { return r.rt }

// Cluster exposes the simulated machine.
func (r *Runtime) Cluster() *nodeos.Cluster { return r.rt.Cluster() }

// Procs returns the region width.
func (r *Runtime) Procs() int { return r.procs }

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

// Thread returns the underlying pthread.
func (o *OMP) Thread() *cables.Thread { return o.th }

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
	r.pool = make([]*poolWorker, r.procs)
	for i := range r.pool {
		w := &poolWorker{
			work: make(chan func(th *cables.Thread)),
			// Buffered: a worker must be able to post its region end and
			// return to the idle wait without holding its scheduler slot
			// hostage while the master is still collecting other workers.
			done: make(chan sim.Time, 1),
		}
		r.pool[i] = w
		r.record(main, "create", func() {
			w.th = r.rt.Create(main, func(th *cables.Thread) {
				node := r.rt.Cluster().Nodes[th.Task.NodeID]
				for {
					node.ThreadStopped() // idle between regions
					th.Task.Block()      // release the slot while idle
					fn, ok := <-w.work
					th.Task.Unblock()
					node.ThreadStarted()
					if !ok {
						break
					}
					fn(th)
					w.done <- th.Task.Now()
				}
				w.done <- th.Task.Now()
			})
		})
	}
}

// Parallel runs body on Procs() pooled pthreads — the translation of
// `#pragma omp parallel`.
func (r *Runtime) Parallel(body func(o *OMP)) {
	main := r.rt.Main().Task
	r.ensurePool()
	r.mu.Lock()
	r.nextBar++
	region := r.nextBar
	r.mu.Unlock()
	start := main.Now()
	for i, w := range r.pool {
		i, w := i, w
		o := &OMP{r: r, tid: i, bar: fmt.Sprintf("omp.%d", region)}
		r.rt.Cluster().Ctr.Add(main.NodeID, stats.EvAdminRequests, 1)
		w.work <- func(th *cables.Thread) {
			o.th = th
			th.Task.WaitUntil(start) // region dispatch message
			body(o)
		}
	}
	for _, w := range r.pool {
		end := <-w.done
		main.WaitUntil(end)
	}
}

// Close retires the pool (end of program).
func (r *Runtime) Close() {
	for _, w := range r.pool {
		close(w.work)
		<-w.done
	}
	r.pool = nil
}

// For executes a statically scheduled work-shared loop over [lo,hi) with an
// implicit closing barrier — `#pragma omp for`.
func (o *OMP) For(lo, hi int, body func(i int)) {
	n := hi - lo
	per := n / o.r.procs
	rem := n % o.r.procs
	myLo := lo + o.tid*per + min(o.tid, rem)
	myHi := myLo + per
	if o.tid < rem {
		myHi++
	}
	for i := myLo; i < myHi; i++ {
		body(i)
	}
	o.Barrier()
}

// ForNowait is `#pragma omp for nowait`: no closing barrier.
func (o *OMP) ForNowait(lo, hi int, body func(i int)) {
	n := hi - lo
	per := n / o.r.procs
	rem := n % o.r.procs
	myLo := lo + o.tid*per + min(o.tid, rem)
	myHi := myLo + per
	if o.tid < rem {
		myHi++
	}
	for i := myLo; i < myHi; i++ {
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
	o.r.mu.Lock()
	mx, ok := o.r.crit[name]
	if !ok {
		mx = o.r.rt.NewMutex(o.th.Task)
		o.r.crit[name] = mx
	}
	o.r.mu.Unlock()
	o.r.record(o.th.Task, "mutex_lock", func() { mx.Lock(o.th.Task) })
	body()
	o.r.record(o.th.Task, "mutex_unlock", func() { mx.Unlock(o.th.Task) })
}

// Single runs body on thread 0 only, with an implicit barrier —
// `#pragma omp single` (master-variant).
func (o *OMP) Single(body func()) {
	if o.tid == 0 {
		body()
	}
	o.Barrier()
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
