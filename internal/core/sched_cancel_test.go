package cables_test

import (
	"testing"

	cables "cables/internal/core"
	"cables/internal/sim"
)

// condCancelOrder is one order in which a signal and pthread_cancel reach a
// cond waiter.
type condCancelOrder int

const (
	signalThenCancel condCancelOrder = iota // both reach the parked waiter
	cancelThenSignal                        // both reach the parked waiter
	cancelBeforeWait                        // the cancel is pending when Wait starts
)

// condCancelOutcome is what one signal/cancel race on a cond waiter leaves
// behind.
type condCancelOutcome struct {
	returned   bool     // the victim's Wait returned instead of unwinding
	idleSignal sim.Time // a signal on the cond with nobody waiting
	signal     sim.Time // the signal issued beside the cancel
	victimEnd  sim.Time
	mainEnd    sim.Time
}

// condCancelRun has a victim wait on a cond, then signals and cancels it in
// the given order and joins it.
func condCancelRun(order condCancelOrder) condCancelOutcome {
	rt := cables.New(cables.Config{
		MaxNodes:     2,
		ProcsPerNode: 2,
		ArenaBytes:   4 << 20,
	})
	main := rt.Start().Task
	mx := rt.NewMutex(main)
	cond := rt.NewCond(main)
	signal := func() sim.Time {
		t0 := main.Now()
		cond.Signal(main)
		return main.Now() - t0
	}
	var o condCancelOutcome
	o.idleSignal = signal()
	victim := rt.Create(main, func(th *cables.Thread) {
		mx.Lock(th.Task)
		if order == cancelBeforeWait {
			main.Unpark(th.Task.Now())
			th.Task.Park() // main cancels this thread meanwhile
		}
		main.Unpark(th.Task.Now())
		cond.Wait(th, mx)
		o.returned = true
		mx.Unlock(th.Task)
	})
	main.Park() // the victim holds the slot until it parks
	switch order {
	case signalThenCancel:
		o.signal = signal()
		rt.Cancel(main, victim)
	case cancelThenSignal:
		rt.Cancel(main, victim)
		o.signal = signal()
	case cancelBeforeWait:
		rt.Cancel(main, victim)
		victim.Task.Unpark(main.Now())
		main.Park() // the victim holds the slot until Wait parks or unwinds
		o.signal = signal()
	}
	rt.Join(main, victim)
	o.victimEnd, o.mainEnd = victim.Task.Now(), main.Now()
	return o
}

// TestCondCancelDrainsClaimedGrant checks the orders in which a signal and
// pthread_cancel reach a cond waiter.  Whichever takes the waiter off the
// wait list first decides: a waiter the signal claimed consumes its grant
// and returns from Wait (a cancel never consumes a signal); a waiter the
// cancel claimed unwinds, and the later signal finds nobody to wake.  A
// cancel already pending when Wait starts claims the waiter before it
// parks.  Each order must repeat exactly over its iterations.
func TestCondCancelDrainsClaimedGrant(t *testing.T) {
	for _, tc := range []struct {
		name  string
		order condCancelOrder
	}{
		{"signal_then_cancel", signalThenCancel},
		{"cancel_then_signal", cancelThenSignal},
		{"cancel_before_wait", cancelBeforeWait},
	} {
		t.Run(tc.name, func(t *testing.T) {
			signaled := tc.order == signalThenCancel
			first := condCancelRun(tc.order)
			if first.returned != signaled {
				t.Fatalf("Wait returned = %v, want %v", first.returned, signaled)
			}
			if woke := first.signal != first.idleSignal; woke != signaled {
				t.Fatalf("signal cost %v vs %v with nobody waiting: woke a waiter = %v, want %v",
					first.signal, first.idleSignal, woke, signaled)
			}
			for i := 1; i < 20; i++ {
				if got := condCancelRun(tc.order); got != first {
					t.Fatalf("iteration %d: %+v, first run %+v", i, got, first)
				}
			}
		})
	}
}
