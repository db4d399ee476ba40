package sim

import (
	"container/heap"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// preemptSlack is how far ahead of the earliest ready peer (in virtual
// time) a running task may compute before its Compute safe point hands the
// slot over.  A generous slack bounds the host cost of leapfrog switching —
// virtual compute is nearly free on the host, so switching at every charge
// would cost more wall-clock than it saves — while still keeping
// dynamic-queue work distribution close to virtual-time order.
const preemptSlack = 1 * Millisecond

// stallTimeout is how long the slot holders may go with neither their
// virtual clocks nor the run queue moving before the scheduler concludes
// they are blocked outside it — a raw channel or WaitGroup wait that Block
// does not bracket — and adds a slot, so such code runs on in host order
// instead of deadlocking.  Stalls counts every such slot.
const stallTimeout = 100 * time.Millisecond

// emptyKey is the ready-queue minimum when nothing is queued.
const emptyKey = math.MaxInt64

// stalls counts the slots stall watchdogs have added, process-wide.
var stalls atomic.Int64

// Stalls returns how many execution slots the stall watchdogs of all
// schedulers in the process have added.  The simulator's own code blocks a
// managed task only through Park or Block, so any count above zero marks a
// raw host wait that Block should bracket, and a cell that ran in host
// order from then on.
func Stalls() int64 { return stalls.Load() }

// Scheduler is the simulator's thread manager: a virtual-time-ordered run
// queue — one min-heap per simulated node, a top-level heap over the nodes'
// earliest entries (the hierarchical run-queue shape of Thibault's flexible
// scheduler for hierarchical machines) — feeding one host execution slot.
// One Scheduler manages the tasks of one simulation (one cluster);
// concurrent simulations on the host each have their own, and they are
// where host parallelism comes from.
//
// Managed tasks, spawned through Go, own a goroutine each (application
// code blocks for real), but only the slot holder executes: a task releases
// the slot when it parks or blocks, and rejoins the run queue keyed by its
// virtual clock when it becomes ready.  The slot goes strictly to the
// earliest queued task, and a task is queued by whoever makes it ready —
// its spawner, its waker, or itself at a safe point — while that party
// holds the slot, so the managed tasks' interleaving follows virtual time,
// not host timing.
//
// Unmanaged tasks (main/coordinator threads, whose goroutine the harness
// owns) are not slot-disciplined: their Park/Unpark degrade to the plain
// channel hand-off and Block/Unblock to no-ops.
type Scheduler struct {
	mu      sync.Mutex
	free    int          // unheld execution slots; > 0 implies empty queues
	holders []*eventTask // tasks holding a slot, watched for progress
	nodes   []*nodeQueue // lazily created per-node sub-queues, by node id
	order   nodeHeap     // non-empty sub-queues, keyed by their earliest entry
	seq     uint64       // global FIFO tiebreak for equal virtual keys
	// watching is set while the stall watchdog runs (whenever tasks wait).
	watching bool

	// minReady caches the earliest queued key (emptyKey when none) so the
	// Compute safe point's fast path is one atomic load, no lock.
	minReady atomic.Int64
}

// NewScheduler builds a scheduler with one execution slot.
func NewScheduler() *Scheduler {
	s := &Scheduler{free: 1}
	s.minReady.Store(emptyKey)
	return s
}

// eventTask is the per-managed-task scheduler state.  s.mu guards every
// field but the immutable s, t and token.
type eventTask struct {
	s     *Scheduler
	t     *Task
	token chan struct{} // slot grant; buffered so dispatch never blocks
	key   Time          // queued virtual instant
	seq   uint64        // FIFO tiebreak

	// parked is set while the task waits in Park with its slot released
	// and nobody has queued it yet.
	parked bool
}

// Go spawns fn as the body of managed task t.  The spawner queues t at its
// current clock before the goroutine starts, so tasks spawned at equal
// virtual instants are admitted in spawn order; fn runs once t is admitted
// to the slot, and the slot is returned when fn unwinds.
func (s *Scheduler) Go(t *Task, fn func()) {
	et := &eventTask{s: s, t: t, token: make(chan struct{}, 1)}
	t.evt = et
	s.mu.Lock()
	s.pushLocked(et, t.Now())
	s.dispatchLocked()
	s.mu.Unlock()
	go func() {
		<-et.token
		defer s.release(et)
		fn()
	}()
}

// preempt is the Compute safe point (no host locks held): hand the slot
// over when a ready peer has fallen more than preemptSlack behind this
// task's virtual clock.  Releasing the slot and requeueing is one step, so
// the peer cannot queue anything before this task is back in the queue.
func (s *Scheduler) preempt(et *eventTask) {
	if now := et.t.Now(); now < preemptSlack || Time(s.minReady.Load()) > now-preemptSlack {
		return
	}
	s.mu.Lock()
	s.releaseLocked(et)
	s.pushLocked(et, et.t.Now())
	s.dispatchLocked()
	s.mu.Unlock()
	<-et.token
}

// park releases et's slot as it starts waiting for a hand-off.  A grant
// that arrived first (the waker claimed the task from a wait list it had
// just joined) is taken at once and the task queues itself at it, with
// early set; otherwise the waker queues it (wake).
func (s *Scheduler) park(et *eventTask) (v Time, early bool) {
	s.mu.Lock()
	s.releaseLocked(et)
	select {
	case v = <-et.t.grant:
		early = true
		s.pushLocked(et, MaxTime(et.t.Now(), v))
	default:
		et.parked = true
	}
	s.dispatchLocked()
	s.mu.Unlock()
	return v, early
}

// wake delivers hand-off instant v to et and, if it is parked, queues it
// on the waker's side, so it is in the run queue before the waker runs on.
// The grant is sent under s.mu, so park sees either the grant or the
// parked flag cleared by this wake — never neither.
func (s *Scheduler) wake(et *eventTask, v Time) {
	s.mu.Lock()
	if et.parked {
		et.parked = false
		s.pushLocked(et, MaxTime(et.t.Now(), v))
		s.dispatchLocked()
	}
	et.t.grant <- v
	s.mu.Unlock()
}

// abandon requeues a task whose cancelable wait was cancelled, unless a
// waker already queued it.
func (s *Scheduler) abandon(et *eventTask) {
	s.mu.Lock()
	if et.parked {
		et.parked = false
		s.pushLocked(et, et.t.Now())
		s.dispatchLocked()
	}
	s.mu.Unlock()
}

// ready queues et at virtual instant key and blocks until a slot is
// granted.
func (s *Scheduler) ready(et *eventTask, key Time) {
	s.mu.Lock()
	s.pushLocked(et, key)
	s.dispatchLocked()
	s.mu.Unlock()
	<-et.token
}

// release returns et's slot to the pool and hands it to the earliest queued
// task, if any.
func (s *Scheduler) release(et *eventTask) {
	s.mu.Lock()
	s.releaseLocked(et)
	s.dispatchLocked()
	s.mu.Unlock()
}

// releaseLocked returns et's slot to the pool.  Caller holds s.mu and
// dispatches afterwards.
func (s *Scheduler) releaseLocked(et *eventTask) {
	for i, h := range s.holders {
		if h == et {
			last := len(s.holders) - 1
			s.holders[i] = s.holders[last]
			s.holders[last] = nil
			s.holders = s.holders[:last]
			break
		}
	}
	s.free++
}

// dispatchLocked grants free slots to queued tasks in (key, seq) order,
// refreshes the cached minimum, and starts the stall watchdog when tasks
// are left waiting.  Caller holds s.mu.
func (s *Scheduler) dispatchLocked() {
	for s.free > 0 && len(s.order) > 0 {
		et := s.popMinLocked()
		s.free--
		s.holders = append(s.holders, et)
		et.token <- struct{}{}
	}
	if len(s.order) == 0 {
		s.minReady.Store(emptyKey)
		return
	}
	s.minReady.Store(int64(s.order[0].tasks[0].key))
	if !s.watching {
		s.watching = true
		go s.watch()
	}
}

// watch is the stall watchdog: while tasks wait for a slot, it samples the
// slot holders' virtual clocks and the queue sequence, and adds a slot when
// neither has moved for stallTimeout.  It exits once the queue is empty.
func (s *Scheduler) watch() {
	type mark struct {
		seq    uint64
		clocks Time
	}
	var last mark
	var since time.Time
	for {
		time.Sleep(stallTimeout / 4)
		s.mu.Lock()
		if len(s.order) == 0 {
			s.watching = false
			s.mu.Unlock()
			return
		}
		now := mark{seq: s.seq}
		for _, h := range s.holders {
			now.clocks += h.t.Now()
		}
		switch {
		case since.IsZero() || now != last:
			last, since = now, time.Now()
		case time.Since(since) >= stallTimeout:
			stalls.Add(1)
			s.free++
			s.dispatchLocked()
			since = time.Time{}
		}
		s.mu.Unlock()
	}
}

func taskLess(a, b *eventTask) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// pushLocked queues et at virtual instant key: it inserts et into its
// node's sub-queue and repositions the node in the top-level heap.  The
// caller holds s.mu and dispatches afterwards.
func (s *Scheduler) pushLocked(et *eventTask, key Time) {
	et.key = key
	s.seq++
	et.seq = s.seq
	node := et.t.NodeID
	for node >= len(s.nodes) {
		s.nodes = append(s.nodes, nil)
	}
	nq := s.nodes[node]
	if nq == nil {
		nq = &nodeQueue{pos: -1}
		s.nodes[node] = nq
	}
	heap.Push(&nq.tasks, et)
	if nq.pos < 0 {
		heap.Push(&s.order, nq)
	} else {
		heap.Fix(&s.order, nq.pos)
	}
}

// popMinLocked removes and returns the globally earliest task.  Caller
// holds s.mu and guarantees the queue is non-empty.
func (s *Scheduler) popMinLocked() *eventTask {
	nq := s.order[0]
	et := heap.Pop(&nq.tasks).(*eventTask)
	if len(nq.tasks) == 0 {
		heap.Pop(&s.order)
	} else {
		heap.Fix(&s.order, 0)
	}
	return et
}

// taskHeap is one node's ready tasks, a min-heap on (key, seq).
type taskHeap []*eventTask

func (h taskHeap) Len() int           { return len(h) }
func (h taskHeap) Less(i, j int) bool { return taskLess(h[i], h[j]) }
func (h taskHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)        { *h = append(*h, x.(*eventTask)) }
func (h *taskHeap) Pop() any {
	old := *h
	et := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return et
}

// nodeQueue is one simulated node's sub-queue and its index in the
// top-level heap (-1 while the sub-queue is empty).
type nodeQueue struct {
	tasks taskHeap
	pos   int
}

// nodeHeap is the top-level min-heap over non-empty node sub-queues,
// keyed by each node's earliest task.
type nodeHeap []*nodeQueue

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return taskLess(h[i].tasks[0], h[j].tasks[0]) }
func (h nodeHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}
func (h *nodeHeap) Push(x any) {
	nq := x.(*nodeQueue)
	nq.pos = len(*h)
	*h = append(*h, nq)
}
func (h *nodeHeap) Pop() any {
	old := *h
	nq := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	nq.pos = -1
	return nq
}
