package cables_test

import (
	"testing"

	cables "cables/internal/core"
)

// TestCondCancelDrainsClaimedGrant races a signal against cancellation of a
// cond waiter.  When the signal claims the waiter first (removing it from
// the wait list) and the waiter then honors the cancel, a grant is in
// flight on the task's reusable grant channel; the cancellation unwind must
// drain it, or the task's next park would consume a stale grant.  The
// assertion on Grant()'s buffer makes an undrained grant a hard failure;
// the select inside ParkCancelable picks randomly when both the grant and
// the cancel are ready, so the iterations exercise both the wake-up and the
// abandonment branch.  The subtest is named for the event-driven run queue,
// the one thread manager.
func TestCondCancelDrainsClaimedGrant(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		for i := 0; i < 40; i++ {
			rt := cables.New(cables.Config{
				MaxNodes:     2,
				ProcsPerNode: 2,
				ArenaBytes:   4 << 20,
			})
			rt.Start()
			main := rt.Main()
			mx := rt.NewMutex(main.Task)
			cond := rt.NewCond(main.Task)
			waiting := make(chan struct{})
			victim := rt.Create(main.Task, func(th *cables.Thread) {
				mx.Lock(th.Task)
				close(waiting)
				cond.Wait(th, mx) // canceled or signaled, depending on the race
				mx.Unlock(th.Task)
			})
			main.Task.Block()
			<-waiting
			main.Task.Unblock()
			// Wait is registered before it releases the mutex, so once we
			// can take it the victim is (or is about to be) parked.
			mx.Lock(main.Task)
			mx.Unlock(main.Task)
			// Race the two in both orders.  Signal-then-cancel exercises
			// the plain wake-up (the parked select is won by whichever
			// channel fires first, and the grant got there first).
			// Cancel-then-signal is the dangerous interleaving: the waiter
			// is readied on the cancel branch but has not yet unwound, so
			// Signal still finds it registered, claims it, and leaves a
			// grant in flight that the unwind must drain.
			if i%2 == 0 {
				cond.Signal(main.Task)
				rt.Cancel(main.Task, victim)
			} else {
				rt.Cancel(main.Task, victim)
				cond.Signal(main.Task)
			}
			rt.Join(main.Task, victim)
			if n := len(victim.Task.Grant()); n != 0 {
				t.Fatalf("iteration %d: %d stale grant(s) left on the reusable channel after a canceled wait",
					i, n)
			}
		}
	})
}
