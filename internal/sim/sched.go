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
// they are blocked outside it — a raw channel or WaitGroup wait instead of
// a Park — and lends a slot until the next release, so such code runs on
// instead of deadlocking.  Stalls counts every such loan.
const stallTimeout = 100 * time.Millisecond

// emptyKey is the ready-queue minimum when nothing is queued.
const emptyKey = math.MaxInt64

// stalls counts the slots stall watchdogs have lent, process-wide.
var stalls atomic.Int64

// Stalls returns how many execution slots the stall watchdogs of all
// schedulers in the process have lent.  The simulator's own code blocks a
// managed task only through Park, so any count above zero marks a raw host
// wait inside a cell, and a cell that ran two tasks at once until the loan
// was taken back.
func Stalls() int64 { return stalls.Load() }

// Scheduler is the simulator's thread manager: a virtual-time-ordered run
// queue — one min-heap on (Task.Now, seq) — feeding one host execution slot.
// One Scheduler manages the tasks of one simulation (one cluster);
// concurrent simulations on the host each have their own, and they are
// where host parallelism comes from.
//
// Managed tasks, spawned through Go, own a goroutine each (application
// code blocks for real), but only the slot holder executes: a task releases
// the slot when it parks, and rejoins the run queue keyed by its
// virtual clock when it becomes ready.  The slot goes strictly to the
// earliest queued task, and a task is queued by whoever makes it ready —
// its spawner, its waker, or itself at a safe point — while that party
// holds the slot, so the managed tasks' interleaving follows virtual time,
// not host timing.
//
// A cell's coordinator (its main thread, whose goroutine the harness owns)
// joins through Adopt, so every task of a cell is managed.  Tasks never
// handed to the scheduler (unit tests' bare tasks) are not slot-disciplined:
// their Park/Unpark degrade to the plain channel hand-off.
type Scheduler struct {
	mu      sync.Mutex
	free    int          // unheld execution slots; > 0 implies empty queues
	lent    int          // watchdog-lent slots the next releases take back
	holders []*eventTask // tasks holding a slot, watched for progress
	queue   taskHeap     // ready tasks, a min-heap on (key, seq)
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

// manage attaches fresh scheduler state to t, making it a managed task.
func (s *Scheduler) manage(t *Task) *eventTask {
	et := &eventTask{s: s, t: t, token: make(chan struct{}, 1)}
	t.evt = et
	return et
}

// Adopt makes the calling goroutine the body of managed task t — a cell's
// coordinator, whose goroutine the harness owns.  t is queued at its clock
// and Adopt returns once it holds the slot; from then on it parks and
// yields at safe points like a task spawned through Go.  An adopted task
// never exits through the scheduler: it keeps the slot when its cell is
// done, so nothing else of the cell runs afterwards.
func (s *Scheduler) Adopt(t *Task) {
	et := s.manage(t)
	s.mu.Lock()
	s.pushLocked(et, t.Now())
	s.dispatchLocked()
	s.mu.Unlock()
	<-et.token
}

// Go spawns fn as the body of managed task t.  The spawner queues t at its
// current clock before the goroutine starts, so tasks spawned at equal
// virtual instants are admitted in spawn order; fn runs once t is admitted
// to the slot, and the slot is returned when fn unwinds.
func (s *Scheduler) Go(t *Task, fn func()) {
	et := s.manage(t)
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

// horizon is the virtual instant from which the Compute safe point hands
// the slot over: preemptSlack past the earliest ready peer and never before
// preemptSlack itself, or emptyKey while nothing is queued.
func (s *Scheduler) horizon() Time {
	m := Time(s.minReady.Load())
	if m == emptyKey {
		return emptyKey
	}
	return max(m, 0) + preemptSlack
}

// preempt is the Compute safe point (no host locks held): hand the slot
// over once this task's clock reaches the horizon, preemptSlack ahead of
// the earliest ready peer.  Releasing the slot and requeueing is one step, so
// the peer cannot queue anything before this task is back in the queue.
func (s *Scheduler) preempt(et *eventTask) {
	if et.t.Now() < s.horizon() {
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

// release returns et's slot to the pool and hands it to the earliest queued
// task, if any.
func (s *Scheduler) release(et *eventTask) {
	s.mu.Lock()
	s.releaseLocked(et)
	s.dispatchLocked()
	s.mu.Unlock()
}

// releaseLocked returns et's slot to the pool, or retires it if the stall
// watchdog lent one that is still out.  Caller holds s.mu and dispatches
// afterwards.
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
	if s.lent > 0 {
		s.lent--
		return
	}
	s.free++
}

// dispatchLocked grants free slots to queued tasks in (key, seq) order,
// refreshes the cached minimum, and starts the stall watchdog when tasks
// are left waiting.  Caller holds s.mu.  The minimum is refreshed before
// each grant: the new holder can reach its Compute safe point before this
// call returns, and a stale minimum there (its own former key) would make
// it yield at a host-timed point.
func (s *Scheduler) dispatchLocked() {
	for s.free > 0 && len(s.queue) > 0 {
		et := heap.Pop(&s.queue).(*eventTask)
		s.free--
		s.holders = append(s.holders, et)
		s.storeMinLocked()
		et.token <- struct{}{}
	}
	s.storeMinLocked()
	if len(s.queue) > 0 && !s.watching {
		s.watching = true
		go s.watch()
	}
}

// storeMinLocked refreshes the cached earliest queued key.  Caller holds
// s.mu.
func (s *Scheduler) storeMinLocked() {
	if len(s.queue) == 0 {
		s.minReady.Store(emptyKey)
		return
	}
	s.minReady.Store(int64(s.queue[0].key))
}

// watch is the stall watchdog: while tasks wait for a slot, it samples the
// slot holders' virtual clocks and the queue sequence, and lends a slot when
// neither has moved for stallTimeout.  The next release takes the loan
// back, so the cell runs two tasks at once only until a holder parks,
// yields or exits.  It exits once the queue is empty.
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
		if len(s.queue) == 0 {
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
			s.lent++
			s.free++
			s.dispatchLocked()
			since = time.Time{}
		}
		s.mu.Unlock()
	}
}

// pushLocked queues et at virtual instant key with a fresh global seq, so
// equal keys pop in push order.  The caller holds s.mu and dispatches
// afterwards.
func (s *Scheduler) pushLocked(et *eventTask, key Time) {
	et.key = key
	s.seq++
	et.seq = s.seq
	heap.Push(&s.queue, et)
}

// taskHeap is the ready tasks, a min-heap on (key, seq).
type taskHeap []*eventTask

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(*eventTask)) }
func (h *taskHeap) Pop() any {
	old := *h
	et := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return et
}
