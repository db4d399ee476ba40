package sim

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

func newTestTask(id, node int) *Task {
	return NewTask(id, node, DefaultCosts())
}

// TestEventParkUnpark round-trips one managed task through Park/Unpark and
// checks the grant value advances the clock via the caller's WaitUntil.
func TestEventParkUnpark(t *testing.T) {
	s := NewScheduler()
	tk := newTestTask(1, 0)

	parked := make(chan struct{})
	done := make(chan Time, 1)
	s.Go(tk, func() {
		close(parked)
		v := tk.Park()
		done <- v
	})
	<-parked
	tk.Unpark(42 * Millisecond)
	if got := <-done; got != 42*Millisecond {
		t.Errorf("Park returned %v, want 42ms", got)
	}
}

// holdGate spawns a managed task that owns s's only slot until the returned
// release function is called.
func holdGate(s *Scheduler) (release func()) {
	gate := newTestTask(0, 0)
	running := make(chan struct{})
	done := make(chan struct{})
	s.Go(gate, func() {
		close(running)
		<-done
	})
	<-running // gate owns the slot before any contender can claim it
	return func() { close(done) }
}

// queued reports how many tasks wait in s's run queue.
func queued(s *Scheduler) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// spawn is one managed task for admissionOrder to start.
type spawn struct {
	id, node int
	clock    Time
}

// admissionOrder spawns one managed task per (id, node, clock) entry while
// a gate task holds s's only slot, releases the gate, and returns the ids
// in the order the tasks ran.
func admissionOrder(t *testing.T, s *Scheduler, tasks []spawn) []int {
	t.Helper()
	release := holdGate(s)
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for _, c := range tasks {
		tk := newTestTask(c.id, c.node)
		tk.SetNow(c.clock)
		wg.Add(1)
		s.Go(tk, func() {
			defer wg.Done()
			mu.Lock()
			order = append(order, c.id)
			mu.Unlock()
		})
	}
	waitFor(t, func() bool { return queued(s) == len(tasks) })
	release()
	wg.Wait()
	return order
}

// TestEventAdmitsInVirtualTimeOrder queues three managed tasks with
// distinct virtual clocks behind a gate task holding the only slot, then
// releases the gate and checks they ran earliest-clock-first regardless of
// spawn order.
func TestEventAdmitsInVirtualTimeOrder(t *testing.T) {
	s := NewScheduler()
	// Spawn in the reverse of virtual-time order, across two nodes, so the
	// observed order can only come from the (key, seq) heap discipline.
	order := admissionOrder(t, s, []spawn{
		{id: 30, node: 0, clock: 30 * Millisecond},
		{id: 20, node: 1, clock: 20 * Millisecond},
		{id: 10, node: 0, clock: 10 * Millisecond},
	})
	if len(order) != 3 || order[0] != 10 || order[1] != 20 || order[2] != 30 {
		t.Errorf("admission order: got %v want [10 20 30]", order)
	}
	if got := Time(s.minReady.Load()); got != Time(emptyKey) {
		t.Errorf("minReady after drain: got %v want emptyKey", got)
	}
}

// TestGoAdmitsEqualClocksInSpawnOrder spawns three children at the same
// virtual instant behind a gate holding the only slot: the equal-key
// tiebreak must follow spawn order, not the order in which the host
// happens to start the children's goroutines.
func TestGoAdmitsEqualClocksInSpawnOrder(t *testing.T) {
	s := NewScheduler()
	order := admissionOrder(t, s, []spawn{
		{id: 1, node: 0, clock: 5 * Millisecond},
		{id: 2, node: 0, clock: 5 * Millisecond},
		{id: 3, node: 0, clock: 5 * Millisecond},
	})
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("admission order: got %v want [1 2 3]", order)
	}
}

// TestEventPreemptHandsOver checks the Compute safe point switches to a
// ready peer that has fallen more than preemptSlack behind, and is a no-op
// when the queue is empty or the peer is within slack.
func TestEventPreemptHandsOver(t *testing.T) {
	s := NewScheduler()
	ahead := newTestTask(1, 0)
	ahead.SetNow(10 * preemptSlack)

	ranBehind := make(chan struct{})
	aheadRunning := make(chan struct{})
	proceed := make(chan struct{})
	done := make(chan struct{})
	s.Go(ahead, func() {
		defer close(done)
		ahead.Compute(Nanosecond) // empty queue: must not block
		close(aheadRunning)
		<-proceed // main has queued the lagging peer behind us
		ahead.Compute(Nanosecond)
		// The peer held the earlier virtual instant, so the hand-off must
		// have let it finish before this task got the slot back.
		select {
		case <-ranBehind:
		default:
			t.Error("Compute did not admit the lagging peer first")
		}
	})
	<-aheadRunning              // ahead owns the slot before the peer can claim it
	behind := newTestTask(2, 0) // starts at Now()=0, far behind ahead's clock
	s.Go(behind, func() { close(ranBehind) })
	waitFor(t, func() bool { return queued(s) > 0 })
	close(proceed)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Compute safe point deadlocked")
	}
}

// TestStallAddsSlot runs two managed tasks that hand a token back and forth
// over raw channels instead of Park: with one slot the first to wait would
// hold it forever, so the watchdog must lend a slot and count it, and the
// first release after the stall must take the loan back.
func TestStallAddsSlot(t *testing.T) {
	s := NewScheduler()
	before := Stalls()
	turn := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	finish := make(chan struct{})
	var first, second sync.WaitGroup
	first.Add(1)
	second.Add(1)
	for w, wg := range []*sync.WaitGroup{&first, &second} {
		s.Go(newTestTask(w, 0), func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				<-turn[w]
				turn[1-w] <- struct{}{}
			}
			if w == 1 {
				<-finish // hold the slot past the other task's exit
			}
		})
	}
	turn[0] <- struct{}{}
	done := make(chan struct{})
	go func() { first.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("raw waits deadlocked the slot pool")
	}
	if got := Stalls() - before; got != 1 {
		t.Errorf("Stalls rose by %d, want 1", got)
	}
	// Task 0 has exited; its release retires the lent slot, leaving task 1
	// as the single holder of the cell's one slot.
	waitFor(t, func() bool {
		free, lent, holders := slots(s)
		return free == 0 && lent == 0 && holders == 1
	})
	close(finish)
	second.Wait()
	waitFor(t, func() bool {
		free, lent, holders := slots(s)
		return free == 1 && lent == 0 && holders == 0
	})
}

// slots reads s's slot accounting.
func slots(s *Scheduler) (free, lent, holders int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.free, s.lent, len(s.holders)
}

// TestUnmanagedFallback checks a task never handed to the scheduler parks
// through the plain channel hand-off.
func TestUnmanagedFallback(t *testing.T) {
	tk := newTestTask(1, 0)

	// Park/Unpark round-trip without a slot.
	go tk.Unpark(5 * Millisecond)
	if got := tk.Park(); got != 5*Millisecond {
		t.Errorf("unmanaged Park: got %v want 5ms", got)
	}
	// The Compute safe point is a no-op and must not panic or hang.
	tk.Compute(10 * preemptSlack)
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestQuietEdges pins Quiet where no division is involved: an unmanaged
// task, d ≤ 0 and an empty run queue never reach a hand-off (MaxInt), and a
// clock already past the horizon hands over at the first call (1).
func TestQuietEdges(t *testing.T) {
	if q := newTestTask(1, 0).Quiet(Nanosecond); q != math.MaxInt {
		t.Errorf("unmanaged: Quiet = %d, want MaxInt", q)
	}
	s := NewScheduler()
	a := newTestTask(1, 0)
	a.SetNow(10 * preemptSlack)
	done := make(chan struct{})
	s.Go(a, func() {
		defer close(done)
		if q := a.Quiet(Nanosecond); q != math.MaxInt {
			t.Errorf("empty queue: Quiet = %d, want MaxInt", q)
		}
		s.Go(newTestTask(2, 0), func() {}) // queued at 0, horizon preemptSlack
		if q := a.Quiet(Nanosecond); q != 1 {
			t.Errorf("past the horizon: Quiet = %d, want 1", q)
		}
		if q := a.Quiet(0); q != math.MaxInt {
			t.Errorf("d = 0: Quiet = %d, want MaxInt", q)
		}
	})
	<-done
}

// computeTrace is what a run of Compute calls leaves behind: the task's
// final clock and breakdown, and its clock each time its peer got the slot.
type computeTrace struct {
	now    Time
	brk    Breakdown
	yields []Time
}

// computeRun charges n × Compute(d) on a managed task starting at start —
// one call at a time, or batched through Quiet and ComputeN — while a peer
// queued at peerAt records the task's clock at each of its turns and then
// computes step.  The task's node has runnable threads on 2 processors.
func computeRun(d Time, n int, start, peerAt, step Time, runnable int, batched bool) computeTrace {
	s := NewScheduler()
	smp := &SMP{Processors: 2}
	for i := 0; i < runnable; i++ {
		smp.ThreadStarted()
	}
	a, b := newTestTask(1, 0), newTestTask(2, 1)
	a.SMP = smp
	a.SetNow(start)
	b.SetNow(peerAt)
	var tr computeTrace
	aDone := false
	var wg sync.WaitGroup
	wg.Add(2)
	release := holdGate(s)
	s.Go(a, func() {
		defer wg.Done()
		for left := n; left > 0; {
			k := 1
			if batched {
				k = min(a.Quiet(d), left)
				a.ComputeN(d, k)
			} else {
				a.Compute(d)
			}
			left -= k
		}
		tr.now, tr.brk, aDone = a.Now(), a.Snapshot(), true
	})
	s.Go(b, func() {
		defer wg.Done()
		for !aDone {
			tr.yields = append(tr.yields, a.Now())
			b.Compute(step)
		}
	})
	release()
	wg.Wait()
	return tr
}

// TestComputeNMatchesComputeLoop: for random d and n, a peer queued behind,
// at and ahead of the task, and nodes with r ≤ P and r > P runnable
// threads, Quiet and ComputeN leave the same clock and breakdown as n
// back-to-back Compute(d) calls and hand the slot over at the same instants.
func TestComputeNMatchesComputeLoop(t *testing.T) {
	rng := NewRNG(47)
	yielded := 0
	for trial := 0; trial < 200; trial++ {
		d := Time(1 + rng.Intn(3000))
		n := 1 + rng.Intn(3000)
		start := Time(rng.Intn(4)) * Millisecond
		peerAt := max(0, start+Time(rng.Intn(9)-4)*Millisecond/2)
		step := Time(1+rng.Intn(2500)) * Microsecond
		runnable := rng.Intn(6)
		want := computeRun(d, n, start, peerAt, step, runnable, false)
		got := computeRun(d, n, start, peerAt, step, runnable, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("d=%v n=%d start=%v peer=%v step=%v r=%d:\nbatched %+v\nscalar  %+v",
				d, n, start, peerAt, step, runnable, got, want)
		}
		if len(want.yields) > 0 && want.yields[len(want.yields)-1] > start {
			yielded++
		}
	}
	if yielded < 80 {
		t.Errorf("only %d of 200 trials handed the slot over mid-run", yielded)
	}
}
