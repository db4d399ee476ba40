package sim

import (
	"errors"
	"sync/atomic"
)

// ErrCanceled is the panic value used to unwind a simulated thread that has
// been canceled (pthread_cancel).  The thread-runner recovers it.
var ErrCanceled = errors.New("sim: task canceled")

// SpanProbe observes span boundaries and point marks on one task.  It is the
// narrow waist between the simulator and the virtual-time profiler
// (internal/profile): sim stays free of profiler types, and a task with no
// probe attached pays one nil check per instrumentation site.  A probe is
// owned by the task's goroutine — the same single-owner rule as the clock —
// so implementations need no locking for per-task state.
//
// Probes observe; they never charge.  The Breakdown pointer passed at open
// and close lets the probe attribute a span's virtual time to categories by
// differencing, without sim exposing its accounting internals.
type SpanProbe interface {
	// SpanOpen begins a nested span of the given kind (a
	// profile.SpanKind value) with one argument (page id, lock id, ...).
	SpanOpen(kind uint8, arg uint64, now Time, brk *Breakdown)
	// SpanClose ends the innermost open span.
	SpanClose(now Time, brk *Breakdown)
	// SpanMark records a point event (a profile.MarkKind value) at now.
	SpanMark(kind uint8, arg, val uint64, now Time)
}

// Task is one simulated thread of execution.  It is owned by exactly one
// goroutine; only that goroutine calls Charge/Compute/Attribute.  Other
// goroutines may read the clock (synchronization primitives merge peers'
// clocks) and may request cancellation, which is why those fields are atomic.
type Task struct {
	// ID is the application-wide thread identifier.
	ID int
	// NodeID is the cluster node the task runs on.
	NodeID int

	// execNode, when non-zero, overrides the node the task's memory-side
	// operations act on: node n is stored as n+1 so the zero value means
	// "no override" and NewTask needs no extra argument.  Set by the
	// delegate coherence protocol for the span of a delegated critical
	// section; written and read only by the owner goroutine.
	execNode int

	clock    atomic.Int64 // virtual now, ns
	canceled atomic.Bool

	// brk is the cumulative cost breakdown.  Owner-goroutine writes; readers
	// must hold the task quiescent (e.g. after join).
	brk Breakdown

	// Load, if set, reports the current computation dilation factor of the
	// node (runnable threads / processors, floored at 1).  Installed by the
	// node OS model.
	Load func() float64

	costs *Costs

	// evt is the scheduler's per-task state, set by Scheduler.Go and nil
	// for unmanaged tasks — the zero-cost "is this task slot-disciplined"
	// check every park, block and safe point makes.
	evt *eventTask

	// prof is the attached span probe, nil when no profiler is observing
	// the run.  Set before the task's goroutine starts (or by the owner);
	// called only from the owner goroutine.
	prof SpanProbe

	// grant is the task's reusable hand-off channel: contended lock
	// acquires and condition waits park the task on it and the releaser or
	// signaler delivers the hand-off instant through it.  Reusing one
	// buffered channel per task removes a heap allocation from every
	// contended synchronization operation.  A parked task is blocked in
	// exactly one primitive at a time, so at most one grant is ever
	// outstanding; primitives that abandon a wait (cancellation) must drain
	// any in-flight grant before the channel is reused.
	grant chan Time
}

// NewTask returns a task with the given identifiers running against the cost
// table c.  The grant channel is allocated eagerly: a releaser may Unpark a
// task from another goroutine before the task's own first park, so lazy
// creation would race.
func NewTask(id, node int, c *Costs) *Task {
	return &Task{ID: id, NodeID: node, costs: c, grant: make(chan Time, 1)}
}

// Costs returns the task's cost table.
func (t *Task) Costs() *Costs { return t.costs }

// MemNode returns the node the task's memory and communication operations
// act on: NodeID, unless a delegated critical section has moved execution
// to a server node (SetExecNode), in which case page faults, flushes and
// wire-op sources are attributed there.  Scheduling stays keyed on NodeID.
func (t *Task) MemNode() int {
	if t.execNode != 0 {
		return t.execNode - 1
	}
	return t.NodeID
}

// SetExecNode moves the task's memory-side execution to node n (a
// delegated critical section running at its server); n < 0 clears the
// override and returns the task to NodeID.  Owner goroutine only.
func (t *Task) SetExecNode(n int) {
	if n < 0 {
		t.execNode = 0
		return
	}
	t.execNode = n + 1
}

// Grant returns the task's reusable hand-off channel (buffered, capacity 1);
// see the field comment for the reuse contract.
func (t *Task) Grant() chan Time { return t.grant }

// Park blocks t until a peer delivers a hand-off instant via Unpark, and
// returns that instant.  Called only by t's owner goroutine.  A managed
// task gives up its slot while parked; the waker queues it at the granted
// instant.
func (t *Task) Park() Time {
	et := t.evt
	if et == nil {
		return <-t.grant
	}
	v, early := et.s.park(et)
	if !early {
		v = <-t.grant
	}
	<-et.token
	return v
}

// ParkCancelable is Park that also unblocks when cancel is closed.  It
// returns (grant, true) on a normal hand-off and (0, false) when the wait
// was abandoned; in the latter case a grant may still be in flight and the
// abandoning primitive must drain it (the Grant reuse contract) before the
// task parks again.  Both outcomes readmit a managed task before returning,
// so the drain happens while holding a slot: granters never need a slot
// between claiming a waiter and delivering, so it cannot deadlock the pool.
func (t *Task) ParkCancelable(cancel <-chan struct{}) (Time, bool) {
	et := t.evt
	if et == nil {
		select {
		case v := <-t.grant:
			return v, true
		case <-cancel:
			return 0, false
		}
	}
	v, early := et.s.park(et)
	if early {
		<-et.token
		return v, true
	}
	select {
	case v = <-t.grant:
		<-et.token
		return v, true
	case <-cancel:
		et.s.abandon(et)
		<-et.token
		return 0, false
	}
}

// Unpark delivers hand-off instant v to parked task t, queueing a managed
// task on the caller's side.  Never blocks: the grant channel is buffered
// and at most one grant is outstanding.
func (t *Task) Unpark(v Time) {
	if et := t.evt; et != nil {
		et.s.wake(et, v)
		return
	}
	t.grant <- v
}

// Block releases a managed task's slot before a raw host-blocking operation
// outside the park path (a join's done-channel receive, a worker pool's idle
// receive, a host WaitGroup); Unblock rejoins the run queue after it.  Both
// are no-ops for unmanaged tasks.
func (t *Task) Block() {
	if et := t.evt; et != nil {
		et.s.release(et)
	}
}

// Unblock rejoins the run queue after Block.
func (t *Task) Unblock() {
	if et := t.evt; et != nil {
		et.s.ready(et, t.Now())
	}
}

// Now returns the task's current virtual time.
func (t *Task) Now() Time { return Time(t.clock.Load()) }

// SetNow initializes the clock (used when spawning a child at the parent's
// current time).
func (t *Task) SetNow(v Time) { t.clock.Store(int64(v)) }

// Charge advances the clock by d and attributes it to category cat.
// Charges occur under the simulator's internal host mutexes, so Charge
// never blocks; clock-ordered switching has its own safe point (Compute).
func (t *Task) Charge(cat Category, d Time) {
	if d <= 0 {
		return
	}
	t.clock.Add(int64(d))
	t.brk.Add(cat, d)
}

// Attribute records d against category cat without advancing the clock.
// Used for work that overlaps other charged work (the paper notes that node
// attach breakdowns "will not exactly add up to the total" for this reason).
func (t *Task) Attribute(cat Category, d Time) {
	if d > 0 {
		t.brk.Add(cat, d)
	}
}

// Compute charges application computation of duration d, dilated by the
// node's current load factor (threads time-share processors) and by the cost
// table's compute scale.  Compute is also the scheduler's safe point: the
// caller holds no host locks here, so a managed task that has run far ahead
// in virtual time may block until readmitted.
func (t *Task) Compute(d Time) {
	if d <= 0 {
		return
	}
	f := t.costs.ComputeScale
	if t.Load != nil {
		f *= t.Load()
	}
	t.Charge(CatCompute, Time(float64(d)*f))
	if et := t.evt; et != nil {
		et.s.preempt(et)
	}
}

// WaitUntil advances the clock to instant v if v is in the task's future,
// attributing the gap to CatWait.  Returns the (possibly unchanged) now.
func (t *Task) WaitUntil(v Time) Time {
	now := t.Now()
	if v > now {
		t.Charge(CatWait, v-now)
		return v
	}
	return now
}

// Snapshot returns a copy of the cumulative breakdown.  Call only from the
// owner goroutine or after the task has finished.
func (t *Task) Snapshot() Breakdown { return t.brk }

// SetProbe attaches (or, with nil, detaches) a span probe.  Call before the
// task's goroutine starts, or from the owner goroutine.
func (t *Task) SetProbe(p SpanProbe) { t.prof = p }

// Probe returns the attached span probe, nil when none.
func (t *Task) Probe() SpanProbe { return t.prof }

// OpenSpan begins a profiling span of the given kind.  With no probe
// attached this is a single nil check — the detached fast path that
// TestDetachedSpanAllocFree keeps allocation-free and
// bench.TestHostCostBudgets holds at ≤0.5% of a flush operation.
func (t *Task) OpenSpan(kind uint8, arg uint64) {
	if t.prof != nil {
		t.prof.SpanOpen(kind, arg, t.Now(), &t.brk)
	}
}

// CloseSpan ends the innermost span opened by OpenSpan.
func (t *Task) CloseSpan() {
	if t.prof != nil {
		t.prof.SpanClose(t.Now(), &t.brk)
	}
}

// MarkSpan records a point event on the task's timeline.
func (t *Task) MarkSpan(kind uint8, arg, val uint64) {
	if t.prof != nil {
		t.prof.SpanMark(kind, arg, val, t.Now())
	}
}

// Cancel marks the task canceled; the owning goroutine unwinds at its next
// cancellation point.
func (t *Task) Cancel() { t.canceled.Store(true) }

// Canceled reports whether cancellation has been requested.
func (t *Task) Canceled() bool { return t.canceled.Load() }

// CancelPoint panics with ErrCanceled if cancellation has been requested.
// Synchronization operations and page faults are cancellation points,
// mirroring POSIX deferred cancellation.
func (t *Task) CancelPoint() {
	if t.canceled.Load() {
		panic(ErrCanceled)
	}
}
