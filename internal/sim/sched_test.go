package sim

import (
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
	n := 0
	for _, nq := range s.nodes {
		if nq != nil {
			n += len(nq.tasks)
		}
	}
	return n
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

// TestEventParkCancelableDrain exercises the grant-reuse contract on the
// cancel path: a canceled waiter is readmitted holding its slot and must be
// able to drain an in-flight grant without deadlocking the pool, and the
// drained wake-up must not leak into its next wait.
func TestEventParkCancelableDrain(t *testing.T) {
	s := NewScheduler()
	tk := newTestTask(1, 0)

	cancel := make(chan struct{})
	close(cancel) // cancellation already pending when the task parks
	canceled := make(chan struct{}, 1)
	drained := make(chan struct{})
	done := make(chan Time, 1)
	s.Go(tk, func() {
		v, ok := tk.ParkCancelable(cancel)
		if ok || v != 0 {
			// The grant is delivered only after the cancel branch returns
			// (see the canceled hand-shake below), so cancel must win here.
			t.Errorf("ParkCancelable: got (%v, %v), want (0, false)", v, ok)
		}
		canceled <- struct{}{}
		// A granter claimed this waiter concurrently; the abandoning
		// primitive drains the stale grant while holding its slot.
		if got := <-tk.Grant(); got != 7*Millisecond {
			t.Errorf("drained grant: got %v want 7ms", got)
		}
		close(drained)
		done <- tk.Park()
	})
	<-canceled
	tk.Unpark(7 * Millisecond) // buffered: never needs a slot to deliver
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("canceled waiter never resumed: slot pool deadlocked")
	}
	// The next wait must really release the slot: a peer can only run
	// while tk is parked if the drained wake-up did not queue it again.
	peer := newTestTask(2, 0)
	ran := make(chan struct{})
	s.Go(peer, func() { close(ran) })
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Fatal("parked task kept its slot: the drained wake-up leaked into its next wait")
	}
	tk.Unpark(9 * Millisecond)
	if got := <-done; got != 9*Millisecond {
		t.Errorf("second Park returned %v, want 9ms", got)
	}
	if n := len(tk.Grant()); n != 0 {
		t.Errorf("grant channel left with %d stale entries", n)
	}
}

// TestEventBlockReleasesSlot checks Block/Unblock bracket a raw
// host-blocking operation: with one slot, a second task can only run if the
// first task's Block actually released it.
func TestEventBlockReleasesSlot(t *testing.T) {
	s := NewScheduler()
	a := newTestTask(1, 0)
	b := newTestTask(2, 0)

	fromB := make(chan struct{})
	done := make(chan struct{})
	s.Go(a, func() {
		defer close(done)
		a.Block()
		<-fromB // would deadlock the 1-slot pool if Block kept the slot
		a.Unblock()
	})
	s.Go(b, func() { close(fromB) })
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Block did not release the execution slot")
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
// over raw channels, which Block does not bracket: with one slot the first
// to wait would hold it forever, so the watchdog must add a slot and count
// it.
func TestStallAddsSlot(t *testing.T) {
	s := NewScheduler()
	before := Stalls()
	turn := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		s.Go(newTestTask(w, 0), func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				<-turn[w]
				turn[1-w] <- struct{}{}
			}
		})
	}
	turn[0] <- struct{}{}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("raw waits deadlocked the slot pool")
	}
	if got := Stalls() - before; got != 1 {
		t.Errorf("Stalls rose by %d, want 1", got)
	}
}

// TestUnmanagedFallback checks a task never spawned through Scheduler.Go
// (a coordinator) parks and cancels through the plain channel hand-off.
func TestUnmanagedFallback(t *testing.T) {
	tk := newTestTask(1, 0)

	// Park/Unpark round-trip without a slot.
	go tk.Unpark(5 * Millisecond)
	if got := tk.Park(); got != 5*Millisecond {
		t.Errorf("unmanaged Park: got %v want 5ms", got)
	}
	// Cancelable park takes the cancel branch.
	cancel := make(chan struct{})
	close(cancel)
	if v, ok := tk.ParkCancelable(cancel); ok || v != 0 {
		t.Errorf("unmanaged ParkCancelable: got (%v, %v), want (0, false)", v, ok)
	}
	// Block/Unblock and the Compute safe point are no-ops and must not
	// panic or hang.
	tk.Block()
	tk.Unblock()
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
