// Package profile is the span-structured virtual-time profiler.  It layers
// on the observability invariance rule (docs/OBSERVABILITY.md): spans and
// marks record boundaries the simulation crosses anyway — page-fault
// handling, diff flushes, lock/cond/barrier waits, thread creation, node
// attach, wire ops — and charge nothing, so checksums and placement
// censuses are the same with a profiler attached
// (bench.TestProfilerInvariance compares them with ==).
//
// Each task owns a TaskLog, attached through the narrow sim.SpanProbe
// interface; the log is an append-only slice written only by the task's
// goroutine, so nothing is ever dropped.  Together with stats.Counters it
// is one of the simulator's two virtual-time records: the counters say how
// many times an event happened, the spans and marks say when, on which
// object, and at what cost.  At
// run end the logs merge into a Report — per-span-kind category roll-up,
// per-page heat, per-lock contention — and export as a Chrome
// trace-viewer / Perfetto timeline (WriteTrace).
//
// Accounting model: a span captures the task's cumulative sim.Breakdown at
// open and close; the difference is the span's *inclusive* cost, and its
// *self* cost subtracts the inclusive costs of its direct children.  Self
// costs over a task's span tree therefore telescope to exactly the task's
// own breakdown — the reconciliation invariant the profile tests pin on
// both backends.
package profile

import (
	"cables/internal/sim"
	"cables/internal/stats"
)

// SpanKind classifies one profiled activity.  Values are stable identifiers
// (they cross the sim.SpanProbe boundary as uint8); new kinds are appended.
type SpanKind uint8

// The span inventory (docs/OBSERVABILITY.md lists each kind's emitter).
const (
	// SpanRun is the implicit root covering a task's whole profiled
	// lifetime; Arg is the task id.
	SpanRun SpanKind = iota
	// SpanFault is page-fault handling (validate: fault→fetch→fill); Arg
	// is the page id.
	SpanFault
	// SpanDiff is the diff of one dirty page to its home; Arg is the page id.
	SpanDiff
	// SpanLock is a lock acquisition, including the acquire-side coherence
	// pass; Arg is the lock id.
	SpanLock
	// SpanBarrier is a barrier wait (flush → arrive → release → coherence);
	// Arg is the barrier's name hash.
	SpanBarrier
	// SpanCond is a condition-variable wait; Arg is the cond id.
	SpanCond
	// SpanCreate is thread creation, parent side; Arg is the chosen node.
	SpanCreate
	// SpanAttach is a node attach; Arg is the node id.
	SpanAttach
	// SpanMigrate is a page migration on the CableS memory manager; Arg is
	// the page id.
	SpanMigrate
	// SpanWire is one wire-plane op; Arg is the wire.Kind.
	SpanWire

	numSpanKinds
)

// NumSpanKinds is the number of distinct span kinds.
const NumSpanKinds = int(numSpanKinds)

var spanNames = [NumSpanKinds]string{
	"run", "fault", "diff", "lock", "barrier", "cond",
	"create", "attach", "migrate", "wire",
}

// String returns the span kind's short name (the inventory key).
func (k SpanKind) String() string {
	if int(k) >= NumSpanKinds {
		return "span?"
	}
	return spanNames[k]
}

// MarkKind classifies a point event on a task's timeline.
type MarkKind uint8

// The mark inventory.
const (
	// MarkFill records a page filled from a remote home; Arg is the page
	// id, Val the bytes fetched.
	MarkFill MarkKind = iota
	// MarkLockAcquired records the instant a lock was obtained; Arg is the
	// lock id, Val a LockContended/LockRemote bit set.
	MarkLockAcquired
	// MarkLockReleased records the instant a lock was released; Arg is the
	// lock id.
	MarkLockReleased
	// MarkDelegate records a critical section shipped to a delegation
	// server; Arg is the lock id, Val the server node.
	MarkDelegate
	// MarkMerge records a batched commutative merge sent at a flush; Arg
	// is the home node, Val the merged diff bytes.
	MarkMerge

	numMarkKinds
)

// NumMarkKinds is the number of distinct mark kinds.
const NumMarkKinds = int(numMarkKinds)

var markNames = [NumMarkKinds]string{"fill", "acquired", "released", "delegate", "merge"}

// String returns the mark kind's short name.
func (k MarkKind) String() string {
	if int(k) >= NumMarkKinds {
		return "mark?"
	}
	return markNames[k]
}

// MarkLockAcquired Val bits.
const (
	// LockContended marks an acquire that parked behind the holder.
	LockContended uint64 = 1 << iota
	// LockRemote marks an acquire whose manager was a remote node.
	LockRemote
	// LockDelegated marks an acquire whose critical section was shipped
	// to the lock's delegation server (delegate protocol).
	LockDelegated
)

// WireArgName, when set (package wire registers it at init), names a
// SpanWire Arg — the wire op kind — for report and timeline rendering.
// The indirection keeps profile free of a wire import (wire imports
// profile for the span hook).
var WireArgName func(arg uint64) string

// Span is one closed (or still-open) activity interval of a task.
type Span struct {
	Kind  SpanKind
	Arg   uint64
	Start sim.Time
	End   sim.Time
	// Parent indexes the enclosing span in the same TaskLog; -1 for the root.
	Parent int32

	// Incl is the span's inclusive cost: the task breakdown accumulated
	// between open and close.  (While the span is open it temporarily
	// holds the breakdown snapshot taken at open.)
	Incl sim.Breakdown

	child sim.Breakdown // sum of direct children's Incl
	open  bool
}

// Self returns the span's exclusive cost: inclusive minus direct children.
func (s *Span) Self() sim.Breakdown { return s.Incl.Sub(s.child) }

// Dur returns the span's virtual duration.
func (s *Span) Dur() sim.Time { return s.End - s.Start }

// Mark is one point event of a task.
type Mark struct {
	Kind MarkKind
	Arg  uint64
	Val  uint64
	At   sim.Time
}

// TaskLog is one task's span log.  It implements sim.SpanProbe and is
// written only by the task's goroutine (the probe ownership rule), so it
// needs no locking; read it only after the run has quiesced.
type TaskLog struct {
	task      *sim.Task
	base      sim.Breakdown // breakdown already accumulated at adoption
	spans     []Span
	marks     []Mark
	stack     []int32
	anomalies int // unbalanced closes / spans leaked open at finalize
}

// Task returns the profiled task.
func (l *TaskLog) Task() *sim.Task { return l.task }

// Base returns the breakdown the task had already accumulated when it was
// adopted (non-zero only for tasks profiled mid-life, e.g. a runtime's main
// task attached after initialization).  The reconciliation invariant is
// span self sums == Task().Snapshot() - Base().
func (l *TaskLog) Base() sim.Breakdown { return l.base }

// Spans returns the recorded spans, in open order.  Valid after the run.
func (l *TaskLog) Spans() []Span { return l.spans }

// Marks returns the recorded point events, in time order.
func (l *TaskLog) Marks() []Mark { return l.marks }

// Anomalies reports stack-discipline violations (a close without an open,
// or spans an error unwind left open at finalize).  Zero on a clean run.
func (l *TaskLog) Anomalies() int { return l.anomalies }

// SpanOpen implements sim.SpanProbe.
func (l *TaskLog) SpanOpen(kind uint8, arg uint64, now sim.Time, brk *sim.Breakdown) {
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	l.spans = append(l.spans, Span{
		Kind: SpanKind(kind), Arg: arg, Start: now, Parent: parent,
		Incl: *brk, open: true,
	})
	l.stack = append(l.stack, int32(len(l.spans)-1))
}

// SpanClose implements sim.SpanProbe.
func (l *TaskLog) SpanClose(now sim.Time, brk *sim.Breakdown) {
	n := len(l.stack)
	if n == 0 {
		l.anomalies++
		return
	}
	idx := l.stack[n-1]
	l.stack = l.stack[:n-1]
	s := &l.spans[idx]
	s.End = now
	s.Incl = brk.Sub(s.Incl)
	s.open = false
	if s.Parent >= 0 {
		l.spans[s.Parent].child.AddAll(&s.Incl)
	}
}

// SpanMark implements sim.SpanProbe.
func (l *TaskLog) SpanMark(kind uint8, arg, val uint64, now sim.Time) {
	l.marks = append(l.marks, Mark{Kind: MarkKind(kind), Arg: arg, Val: val, At: now})
}

// finalize closes any spans an unwind left open — at minimum the SpanRun
// root — at the task's final clock and breakdown.  Leaked non-root spans
// count as anomalies.  Call only once the task has quiesced.
func (l *TaskLog) finalize() {
	if len(l.stack) == 0 {
		return
	}
	l.anomalies += len(l.stack) - 1 // everything above the root leaked
	now := l.task.Now()
	brk := l.task.Snapshot()
	for len(l.stack) > 0 {
		l.SpanClose(now, &brk)
	}
}

// Profiler collects the TaskLogs of one run.  Adopt runs in the slot of
// the task that creates the new one, so it needs no lock; everything else
// reads after quiescence.
type Profiler struct {
	logs []*TaskLog

	// Epochs, when set by the attach point (bench.AttachProfiler),
	// receives a counter snapshot at every barrier release, which reaches
	// it through nodeos.Cluster.Prof, giving per-epoch counter windows.
	Epochs *stats.EpochLog
}

// New creates an empty profiler.
func New() *Profiler { return &Profiler{} }

// Adopt attaches a fresh TaskLog to t and opens its SpanRun root.  Call
// before the task's goroutine starts (nodeos.Cluster.NewTask calls it for
// every task when a profiler is installed).  A task that already carries a
// probe is left alone.
func (p *Profiler) Adopt(t *sim.Task) {
	if t.Probe() != nil {
		return
	}
	l := &TaskLog{task: t, base: t.Snapshot()}
	t.SetProbe(l)
	t.OpenSpan(uint8(SpanRun), uint64(t.ID))
	p.logs = append(p.logs, l)
}

// Logs returns the adopted task logs, finalized (root spans closed at each
// task's final clock).  Call only after the run has quiesced.
func (p *Profiler) Logs() []*TaskLog {
	for _, l := range p.logs {
		l.finalize()
	}
	return p.logs
}
