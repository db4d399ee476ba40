// Package appapi defines the runtime interface the workloads are written
// against.  Two implementations exist: the base system (M4 macros directly
// on GeNIMA, package m4) and CableS (M4 macros on the pthreads API, package
// core).  Running the same application on both reproduces the paper's
// Figure 5 comparison.
package appapi

import (
	"cables/internal/memsys"
	"cables/internal/nodeos"
	"cables/internal/sim"
)

// Runtime is the shared-memory programming environment seen by a workload.
type Runtime interface {
	// Spawn starts a worker thread running fn, placed by the backend's
	// policy, and returns its identifier.  Charged to parent.
	Spawn(parent *sim.Task, fn func(t *sim.Task)) int
	// Join blocks parent until the identified thread finishes, merging
	// virtual clocks.
	Join(parent *sim.Task, id int)
	// Lock/Unlock are cluster-wide mutual exclusion on numbered locks.
	Lock(t *sim.Task, id int)
	Unlock(t *sim.Task, id int)
	// Barrier joins the named global barrier with the given party count.
	Barrier(t *sim.Task, name string, parties int)
	// Malloc allocates global shared memory.
	Malloc(t *sim.Task, label string, size int64) (memsys.Addr, error)
	// Acc is the shared-memory accessor for this backend.
	Acc() *memsys.Accessor
	// Procs is the number of processors configured for the run.
	Procs() int
	// Cluster exposes the simulated machine (for statistics).
	Cluster() *nodeos.Cluster
	// Main is the program's initial thread.
	Main() *sim.Task
	// Finish declares the run over and returns the virtual end time (max
	// over all threads, including Main).
	Finish() sim.Time
}

// AllocError is the panic value of a failed Alloc: Err is the allocator's
// error, which the harness reports as the cell's failure.
type AllocError struct{ Err error }

func (e AllocError) Error() string { return e.Err.Error() }

// Alloc allocates size bytes of global shared memory from rt's main thread
// (the G_MALLOC macro).  A failed allocation, such as the base system's
// NIC registration limit, panics with an AllocError: the run cannot go on.
func Alloc(rt Runtime, label string, size int64) memsys.Addr {
	a, err := rt.Malloc(rt.Main(), label, size)
	if err != nil {
		panic(AllocError{err})
	}
	return a
}

// Name reports a short backend name for reporting ("genima" or "cables").
type Name interface{ BackendName() string }

// BackendName returns rt's name, or "unknown".
func BackendName(rt Runtime) string {
	if n, ok := rt.(Name); ok {
		return n.BackendName()
	}
	return "unknown"
}
