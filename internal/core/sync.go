package cables

import (
	"cables/internal/memsys"
	"cables/internal/profile"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/wire"
)

// Mutex is a pthread mutex.  CableS implements mutexes directly on the
// underlying SVM system locks (§2.3); registration with the ACB happens at
// init, and the first acquire from each node pays the additional
// bookkeeping the paper reports in Table 4.
type Mutex struct {
	rt *Runtime
	id int
}

// NewMutex registers a mutex with the ACB (pthread_mutex_init).
func (rt *Runtime) NewMutex(t *sim.Task) *Mutex {
	rt.chargeAdmin(t)
	return &Mutex{rt: rt, id: rt.newLockID()}
}

// Lock acquires the mutex (pthread_mutex_lock).
func (m *Mutex) Lock(t *sim.Task) { m.rt.proto.NewLock(m.id).Acquire(t) }

// Unlock releases the mutex (pthread_mutex_unlock).
func (m *Mutex) Unlock(t *sim.Task) { m.rt.proto.NewLock(m.id).Release(t) }

// condWaiter is one thread parked on a condition variable.  canceled is
// set when pthread_cancel rather than a signal took it off the wait list.
type condWaiter struct {
	t        *sim.Task
	c        *Cond
	start    sim.Time
	canceled bool
}

// Cond is a pthread condition variable.  Waiter bookkeeping lives in the
// ACB; signals and broadcasts are small remote writes that activate threads
// on remote nodes (§2.3).  Waiters spin for a bounded time and then block
// on an OS event when their node is oversubscribed (Karlin et al. [22]).
type Cond struct {
	rt *Runtime
	// id keys the profiler's cond-wait spans.  It comes from its own ACB
	// counter (not newLockID: lock ids are wire-op payload, and sharing the
	// sequence would shift them and the trace checksums they pin).
	id int

	waiters []*condWaiter
}

// NewCond registers a condition variable with the ACB (pthread_cond_init).
func (rt *Runtime) NewCond(t *sim.Task) *Cond {
	rt.chargeAdmin(t)
	return &Cond{rt: rt, id: rt.newCondID()}
}

// Wait atomically releases mx and suspends th until signaled
// (pthread_cond_wait); mx is re-acquired before returning.  Wait is a
// cancellation point: a cancel pending when the mutex has been released, or
// one that claims the waiter before a signal does, unwinds the thread; a
// waiter a signal claimed first returns normally, so a cancel never
// consumes a signal.
func (c *Cond) Wait(th *Thread, mx *Mutex) {
	t := th.Task
	// No cancellation check while the mutex is held: a pending cancel is
	// honored below, after the mutex is released.
	t.OpenSpan(uint8(profile.SpanCond), uint64(c.id))
	costs := c.rt.cl.Costs
	t.Charge(sim.CatLocal, costs.CondWaitLocal)
	// ACB waiter registration: a small write to the master's control block.
	c.rt.cl.Wire.Do(t, wire.Op{Kind: wire.KindCondWait, Dst: c.rt.acb.masterNode})
	t.Charge(sim.CatWait, 10*sim.Microsecond) // ACB update round-trip slack
	if c.rt.Stats != nil {
		// The API overhead of the wait itself, excluding blocking time and
		// the mutex re-acquisition (the paper's Table 4 methodology).
		c.rt.Stats.Record("cond_wait",
			costs.CondWaitLocal+costs.CondWaitComm+10*sim.Microsecond)
	}
	c.rt.cl.Ctr.Add(t.NodeID, stats.EvCondWaits, 1)

	node := c.rt.cl.Nodes[t.NodeID]
	// Spin when the node has spare processors; otherwise block on an OS
	// event and pay the wake-up penalty if the wait outlasts the spin bound.
	spinning := node.Runnable() <= node.Processors
	w := &condWaiter{t: t, c: c, start: t.Now()}
	c.waiters = append(c.waiters, w)
	th.waiting = w

	mx.Unlock(t)
	if !spinning {
		node.ThreadStopped()
	}
	// Whoever takes w off the wait list — a signal, a broadcast or Cancel —
	// unparks the thread; a cancel already pending claims it here instead.
	var grant sim.Time
	if !t.Canceled() || !c.cancel(w) {
		grant = t.Park()
	}
	th.waiting = nil
	if !spinning {
		node.ThreadStarted()
	}
	if w.canceled {
		// Close the cond span before the cancellation unwind so the span
		// stack stays balanced on the canceled thread's log.
		t.CloseSpan()
		panic(sim.ErrCanceled)
	}
	waited := grant - w.start
	t.WaitUntil(grant)
	if !spinning && waited > costs.SpinBeforeBlock {
		t.Charge(sim.CatLocalOS, costs.OSBlockWake)
	}
	c.rt.proto.ApplyAcquire(t)
	c.rt.proto.NewLock(mx.id).Relock(t)
	t.CloseSpan()
}

// cancel takes w off the wait list for pthread_cancel, reporting false when
// a signal or broadcast claimed it first.
func (c *Cond) cancel(w *condWaiter) bool {
	for i, x := range c.waiters {
		if x == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			w.canceled = true
			return true
		}
	}
	return false
}

// Signal wakes one waiter (pthread_cond_signal).
func (c *Cond) Signal(t *sim.Task) {
	costs := c.rt.cl.Costs
	c.rt.proto.Flush(t)
	t.Charge(sim.CatLocal, costs.CondSignalLocal)
	t.Charge(sim.CatLocalOS, costs.CondSignalOS)
	c.rt.cl.Ctr.Add(t.NodeID, stats.EvCondSignals, 1)

	var w *condWaiter
	if len(c.waiters) > 0 {
		w = c.waiters[0]
		c.waiters = c.waiters[1:]
	}
	if w == nil {
		return
	}
	if w.t.NodeID != t.NodeID {
		c.rt.cl.Wire.Do(t, wire.Op{Kind: wire.KindCondSignal, Dst: w.t.NodeID})
	} else {
		t.Charge(sim.CatLocal, 5*sim.Microsecond)
	}
	w.t.Unpark(t.Now())
}

// Broadcast wakes all waiters (pthread_cond_broadcast).  Cost grows with
// the number of nodes hosting waiters: one remote write each (§3.2).
func (c *Cond) Broadcast(t *sim.Task) {
	costs := c.rt.cl.Costs
	c.rt.proto.Flush(t)
	t.Charge(sim.CatLocal, costs.CondBcastLocal)
	t.Charge(sim.CatLocalOS, costs.CondBcastOS)

	ws := c.waiters
	c.waiters = nil

	notified := make(map[int]bool)
	for _, w := range ws {
		if w.t.NodeID != t.NodeID && !notified[w.t.NodeID] {
			notified[w.t.NodeID] = true
			c.rt.cl.Wire.Do(t, wire.Op{Kind: wire.KindCondBcast, Dst: w.t.NodeID})
		}
	}
	now := t.Now()
	for _, w := range ws {
		w.t.Unpark(now)
	}
	c.rt.cl.Ctr.Add(t.NodeID, stats.EvCondSignals, int64(len(ws)))
}

// Barrier is the pthread_barrier(number_of_threads) extension CableS adds
// for legacy parallel applications (§2.3); it rides the SVM system's native
// barrier mechanism rather than point-to-point mutex/cond synchronization.
func (rt *Runtime) Barrier(t *sim.Task, name string, parties int) {
	rt.proto.NewBarrier("pthread."+name).Wait(t, parties)
}

// CentralBarrier is the barrier the paper measures as "pthreads barrier" in
// Table 4: built literally from a mutex, a condition variable and a shared
// variable, with the synchronization variable handled by a single node —
// the centralization that makes it orders of magnitude slower than the
// native barrier.
type CentralBarrier struct {
	rt      *Runtime
	mx      *Mutex
	cond    *Cond
	count   memsys.Addr // shared int64
	gen     memsys.Addr // shared int64
	parties int
}

// NewCentralBarrier allocates the barrier's shared state.
func (rt *Runtime) NewCentralBarrier(t *sim.Task, parties int) (*CentralBarrier, error) {
	state, err := rt.mem.Malloc(t, 16)
	if err != nil {
		return nil, err
	}
	b := &CentralBarrier{
		rt:      rt,
		mx:      rt.NewMutex(t),
		cond:    rt.NewCond(t),
		count:   state,
		gen:     state + 8,
		parties: parties,
	}
	acc := rt.Acc()
	acc.WriteI64(t, b.count, 0)
	acc.WriteI64(t, b.gen, 0)
	return b, nil
}

// Wait joins the barrier.
func (b *CentralBarrier) Wait(th *Thread) {
	t := th.Task
	acc := b.rt.Acc()
	b.mx.Lock(t)
	g := acc.ReadI64(t, b.gen)
	n := acc.ReadI64(t, b.count) + 1
	acc.WriteI64(t, b.count, n)
	if int(n) == b.parties {
		acc.WriteI64(t, b.count, 0)
		acc.WriteI64(t, b.gen, g+1)
		b.cond.Broadcast(t)
		b.mx.Unlock(t)
		return
	}
	for acc.ReadI64(t, b.gen) == g {
		b.cond.Wait(th, b.mx)
	}
	b.mx.Unlock(t)
}
