package sim

import (
	"errors"
	"math"
	"sync"
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
// goroutine; only that goroutine calls Charge/Compute/Attribute.  Peers in
// the same cell read the clock (synchronization primitives merge peers'
// clocks) and request cancellation, but only from the cell's scheduler
// slot.  The clock is atomic because the stall watchdog samples slot
// holders' clocks from its own goroutine (sched.go, watch).
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

	// SMP, if set, is the node whose processors the task time-shares;
	// Compute dilates by its runnable-thread count.  Installed by the node
	// OS model.
	SMP *SMP

	costs *Costs

	// evt is the scheduler's per-task state, set by Scheduler.Go or Adopt
	// and nil for unmanaged tasks — the zero-cost "is this task
	// slot-disciplined" check every park and safe point makes.
	evt *eventTask

	// prof is the attached span probe, nil when no profiler is observing
	// the run.  Set before the task's goroutine starts (or by the owner);
	// called only from the owner goroutine.
	prof SpanProbe

	// grant is the task's reusable hand-off channel: contended lock
	// acquires, condition waits and joins park the task on it and the
	// waker delivers the hand-off instant through it.  Reusing one buffered
	// channel per task removes a heap allocation from every contended
	// synchronization operation.  A parked task waits in exactly one
	// primitive at a time, and only the waker that claimed it from that
	// primitive's wait list delivers, so at most one grant is outstanding.
	grant chan Time
}

// SMP is a node's processors as its tasks see them: the processor count and
// the number of runnable threads time-sharing them (the local OS schedules
// threads, paper §2.2).  nodeos.Node embeds it.
type SMP struct {
	// Processors is the number of CPUs on the node.
	Processors int

	runnable atomic.Int32
}

// ThreadStarted registers a runnable thread with the node scheduler.
func (s *SMP) ThreadStarted() { s.runnable.Add(1) }

// ThreadStopped removes a thread from the runnable count (exit or block).
func (s *SMP) ThreadStopped() { s.runnable.Add(-1) }

// Runnable returns the current runnable-thread count.
func (s *SMP) Runnable() int { return int(s.runnable.Load()) }

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

// Exit is a thread's exit record: joiners park on it until the thread ends.
// The zero value is a running thread.
type Exit struct {
	mu      sync.Mutex
	done    bool
	end     Time
	joiners []*Task
}

// Wait parks t until the thread has exited and returns its exit instant;
// once it has, Wait returns at once (a thread may be joined again).
func (e *Exit) Wait(t *Task) Time {
	e.mu.Lock()
	if e.done {
		defer e.mu.Unlock()
		return e.end
	}
	e.joiners = append(e.joiners, t)
	e.mu.Unlock()
	return t.Park()
}

// Close records the thread's exit at instant end and unparks its joiners.
// The exiting task calls it while it still holds its scheduler slot, so the
// joiners queue at end in virtual-time order.
func (e *Exit) Close(end Time) {
	e.mu.Lock()
	e.done, e.end = true, end
	joiners := e.joiners
	e.joiners = nil
	e.mu.Unlock()
	for _, j := range joiners {
		j.Unpark(end)
	}
}

// Now returns the task's current virtual time.
func (t *Task) Now() Time { return Time(t.clock.Load()) }

// SetNow initializes the clock (used when spawning a child at the parent's
// current time).
func (t *Task) SetNow(v Time) { t.clock.Store(int64(v)) }

// Charge advances the clock by d and attributes it to category cat.  It
// never blocks or yields the slot, so it may run inside a section that must
// not be interrupted; clock-ordered switching has its own safe point
// (Compute).
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

// Compute charges application computation of duration d.  When r threads
// time-share the node's P processors and r > P, the charge stretches to
// d*r/P, truncated to the nanosecond.  Compute is also the scheduler's safe
// point: a managed task that has run far ahead in virtual time may block
// here until readmitted.
func (t *Task) Compute(d Time) { t.ComputeN(d, 1) }

// ComputeN is n back-to-back Compute(d) calls in one charge and one safe
// point, after the last: it yields where they would whenever n ≤ Quiet(d).
func (t *Task) ComputeN(d Time, n int) {
	if d <= 0 || n <= 0 {
		return
	}
	t.Charge(CatCompute, t.dilate(d)*Time(n))
	if et := t.evt; et != nil {
		et.s.preempt(et)
	}
}

// Quiet returns how many back-to-back Compute(d) calls run up to and
// including the first whose safe point hands the slot over: the smallest
// k ≥ 1 that brings the clock to the scheduler's horizon, or math.MaxInt
// for an unmanaged task, d ≤ 0 or an empty run queue.  Only the slot
// holder's own spawns, wakes and faults move the horizon or the dilation
// before that hand-off, so until it makes one, Quiet stays exact.
func (t *Task) Quiet(d Time) int {
	et := t.evt
	if et == nil || d <= 0 {
		return math.MaxInt
	}
	h := et.s.horizon()
	if h == emptyKey {
		return math.MaxInt
	}
	dd := t.dilate(d)
	return int(max(h-t.Now()+dd-1, dd) / dd)
}

// dilate stretches compute d by the node's time-sharing, d*r/P when its r
// runnable threads outnumber its P processors.
func (t *Task) dilate(d Time) Time {
	if s := t.SMP; s != nil {
		if r, p := Time(s.runnable.Load()), Time(s.Processors); r > p {
			return d * r / p
		}
	}
	return d
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
