package genima

import (
	"fmt"

	"cables/internal/profile"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/wire"
)

// SysLock is a GeNIMA system lock: a cluster-wide mutual-exclusion primitive
// whose state lives on a manager node and is transferred with direct remote
// operations.  CableS implements pthread mutexes directly on system locks
// (§2.3) and the protocol uses them internally for global-state updates.
//
// Virtual-time semantics: acquisition charges the Table 4 costs depending on
// whether the lock was last held on the caller's node; contended acquires
// park until the holder releases and then advance the waiter's clock to the
// hand-off instant.  Like the rest of the protocol's state, the lock's
// fields need no host lock: its cell's tasks run one at a time.
type SysLock struct {
	p  *Protocol
	id int

	held        bool
	queue       []lockWaiter // parked contended acquires, FIFO
	lastRelease sim.Time
	lastNode    int // node that last held (executed) the lock
	holder      int // node the current holder's critical section executes on
	server      int // sticky delegation server (coherence policy); -1 = none
	nodeSeen    []bool
}

// lockWaiter is one parked contended acquire.  atServer records — decided
// at enqueue time — whether the waiter's critical section will execute at
// the lock's delegation server, so the releaser can route the grant without
// reading the waiter's own (by then possibly moved) execution node.
type lockWaiter struct {
	t        *sim.Task
	atServer bool
}

// NewLock creates (or returns) the system lock with the given id.
func (p *Protocol) NewLock(id int) *SysLock {
	if l, ok := p.locks[id]; ok {
		return l
	}
	l := &SysLock{p: p, id: id, lastNode: -1, holder: -1, server: -1, nodeSeen: make([]bool, p.cl.NumNodes())}
	p.locks[id] = l
	return l
}

// chargeAcquire applies the Table 4 acquisition cost model for t.  All
// communication shares are issued as wire ops against the lock's manager
// node (the node that last held it — GeNIMA migrates lock state with the
// holder).
func (l *SysLock) chargeAcquire(t *sim.Task) {
	c := l.p.cl.Costs
	w := l.p.cl.Wire
	if inj := l.p.cl.Fault; l.lastNode >= 0 && l.lastNode != t.NodeID &&
		inj.Detached(l.lastNode, t.Now()) {
		// The manager copy of the lock state lives on a node that has left
		// the application: pull it to this node before acquiring (one bulk
		// state transfer plus the remote-acquire base cost), then treat the
		// acquisition as a fresh local one.
		w.Do(t, wire.Op{Kind: wire.KindRehome, Dst: l.lastNode, Arg: uint64(l.id)})
		t.Charge(sim.CatLocal, c.MutexRemoteBase)
		l.lastNode = -1
		l.p.cl.Ctr.Add(t.NodeID, stats.EvLockRehomes, 1)
		inj.NoteRehome(t.NodeID)
	}
	first := !l.nodeSeen[t.NodeID]
	l.nodeSeen[t.NodeID] = true
	local := l.lastNode == t.NodeID || l.lastNode == -1
	switch {
	case local && first:
		t.Charge(sim.CatLocal, c.MutexLocalFirstBase)
		w.Do(t, wire.Op{Kind: wire.KindLockFirst, Dst: t.NodeID, Arg: uint64(l.id)})
	case local:
		t.Charge(sim.CatLocal, c.MutexLocalFast)
	case first:
		t.Charge(sim.CatLocal, c.MutexRemoteBase-sim.Microsecond)
		t.Charge(sim.CatRemote, c.MutexRemoteRemote)
		w.Do(t, wire.Op{Kind: wire.KindLockRemoteFirst, Dst: l.lastNode, Arg: uint64(l.id)})
	default:
		t.Charge(sim.CatLocal, c.MutexRemoteBase)
		t.Charge(sim.CatRemote, c.MutexRemoteRemote)
		w.Do(t, wire.Op{Kind: wire.KindLockRemote, Dst: l.lastNode, Arg: uint64(l.id)})
	}
	l.p.cl.Ctr.Add(t.NodeID, stats.EvLockAcquires, 1)
	if !local {
		l.p.cl.Ctr.Add(t.NodeID, stats.EvRemoteLockAcquires, 1)
	}
}

// Acquire obtains the lock, charging acquisition costs, blocking behind the
// current holder, and applying acquire-side coherence.  It is a
// cancellation point.
func (l *SysLock) Acquire(t *sim.Task) {
	t.CancelPoint()
	l.Relock(t)
}

// Relock is Acquire without the cancellation point: pthread_cond_wait's
// re-acquire of its mutex, so a waiter a signal woke returns from the wait
// and a pending cancel acts at its next cancellation point.
func (l *SysLock) Relock(t *sim.Task) {
	t.OpenSpan(uint8(profile.SpanLock), uint64(l.id))
	// For the contention profile: the manager was remote at request time
	// (chargeAcquire may re-home it).
	flags := lockFlags(l, t)
	l.chargeAcquire(t)
	if !l.held {
		l.held = true
		l.holder = t.MemNode()
		t.WaitUntil(l.lastRelease)
	} else {
		flags |= profile.LockContended
		// A contended acquire consults the coherence policy: a non-negative
		// answer is the delegation server this waiter's critical section
		// should execute on (the delegate protocol stickies it to the
		// holder's node at first contention; genima always says -1).
		srv := l.p.pol.LockAcquire(l.id, l.holder, t.NodeID)
		if srv >= 0 && l.server < 0 {
			l.server = srv
		}
		// Shipping is only possible when the waiter is not already inside a
		// delegated section (no nested re-targeting) and the server is a
		// different node; a waiter already on the server executes there
		// without a descriptor.
		ship := srv >= 0 && srv != t.NodeID && t.MemNode() == t.NodeID
		atServer := srv >= 0 && (srv == t.NodeID || ship)
		// Park through the scheduler (the task's reusable grant channel —
		// no allocation per contended acquire).  The acquire never abandons
		// the wait, so the grant is always consumed and the channel stays
		// clean for reuse.
		l.queue = append(l.queue, lockWaiter{t: t, atServer: atServer})
		if ship {
			// Ship the critical-section descriptor: flush the origin's
			// write interval first (release semantics travel with the
			// descriptor, so the section's reads at the server observe the
			// thread's pre-section writes), then execute against the
			// server's memory until the matching Release.
			flags |= profile.LockDelegated
			l.p.Flush(t)
			l.p.cl.Wire.Do(t, wire.Op{Kind: wire.KindDelegateReq, Dst: srv, Arg: uint64(l.id)})
			l.p.cl.Ctr.Add(t.NodeID, stats.EvDelegations, 1)
			t.MarkSpan(uint8(profile.MarkDelegate), uint64(l.id), uint64(srv))
			t.SetExecNode(srv)
			l.p.delegated[t] = l.id
		}
		grant := t.Park() // until the releaser hands the lock over
		t.WaitUntil(grant)
	}
	t.MarkSpan(uint8(profile.MarkLockAcquired), uint64(l.id), flags)
	l.p.ApplyAcquire(t)
	t.CloseSpan()
}

// lockFlags computes the profiler's acquire classification.
func lockFlags(l *SysLock, t *sim.Task) uint64 {
	if l.lastNode >= 0 && l.lastNode != t.NodeID {
		return profile.LockRemote
	}
	return 0
}

// Release flushes the caller's write interval and hands the lock to the
// next waiter (if any).
func (l *SysLock) Release(t *sim.Task) {
	exec := t.MemNode()
	pages := l.p.flush(t)
	c := l.p.cl.Costs
	t.Charge(sim.CatLocal, c.MutexUnlock)
	// Did this lock's acquire ship the critical section to a server?  The
	// bookkeeping is keyed to the lock so releasing an unrelated inner lock
	// inside a delegated section does not end the delegation.
	delegated := false
	if exec != t.NodeID {
		if id, ok := l.p.delegated[t]; ok && id == l.id {
			delegated = true
			delete(l.p.delegated, t)
		}
	}
	if delegated {
		// Completion notification from the server back to the origin node
		// (Do sources it at the server: the task still executes there).
		l.p.cl.Wire.Do(t, wire.Op{Kind: wire.KindDelegateDone, Dst: t.NodeID, Arg: uint64(l.id)})
	}
	if !l.held {
		panic(fmt.Sprintf("genima: release of unheld lock %d", l.id))
	}
	l.lastRelease = t.Now()
	l.lastNode = exec
	t.MarkSpan(uint8(profile.MarkLockReleased), uint64(l.id), 0)
	if len(l.queue) > 0 {
		w := l.queue[0]
		l.queue = l.queue[1:]
		if w.atServer {
			l.holder = l.server
		} else {
			l.holder = w.t.NodeID
		}
		release := l.lastRelease
		if w.atServer && exec == l.server {
			// Server-local hand-off: both critical sections execute at the
			// delegation server, so the lock state never crosses the wire —
			// the waiter resumes after an in-memory transfer.  This is the
			// delegate protocol's transfer-wait reduction.
			w.t.Unpark(release + c.MutexLocalFast)
		} else {
			// Hand-off: the waiter resumes at the grant message's delivery
			// instant (release time plus grant latency; the releaser has
			// moved on, so the waiter absorbs the latency as wait time).
			dst := w.t.NodeID
			if w.atServer {
				dst = l.server
			}
			w.t.Unpark(l.p.cl.Wire.DeliverAt(release, wire.Op{
				Kind: wire.KindLockGrant, Src: exec, Dst: dst, Arg: uint64(l.id),
			}))
		}
	} else {
		l.held = false
	}
	if delegated {
		// Back at the origin: drop its stale copies of the pages the
		// critical section wrote at the server, so the thread's next reads
		// refetch its own writes instead of pre-section images.
		t.SetExecNode(-1)
		l.p.dropCopies(t, t.NodeID, pages)
	}
}

// Barrier is GeNIMA's native global barrier.  Arrival flushes the write
// interval; departure applies acquire-side coherence.  Virtual release time
// is the maximum arrival time, so imbalance shows up as CatWait.
type Barrier struct {
	p    *Protocol
	name string
	id   uint64 // name hash; the profiler's barrier key (also picks mgr)

	mgr     int         // node managing the barrier's arrival counter
	waiters []*sim.Task // parked parties of the current generation
	count   int
	arrived sim.Time // max arrival virtual time this generation
	release sim.Time // release instant of the previous generation
}

// NewBarrier creates (or returns) the named barrier.  The arrival counter
// is managed on a node picked by hashing the name, spreading barrier
// traffic across the cluster.
func (p *Protocol) NewBarrier(name string) *Barrier {
	if b, ok := p.bars[name]; ok {
		return b
	}
	h := uint64(14695981039346656037)
	for _, c := range []byte(name) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	b := &Barrier{p: p, name: name, id: h, mgr: int(h % uint64(p.cl.NumNodes()))}
	p.bars[name] = b
	return b
}

// Wait joins the barrier with the given party count.  All parties must pass
// the same count within a generation.
func (b *Barrier) Wait(t *sim.Task, parties int) {
	if parties <= 0 {
		panic(fmt.Sprintf("genima: barrier %q with %d parties", b.name, parties))
	}
	t.CancelPoint()
	t.OpenSpan(uint8(profile.SpanBarrier), b.id)
	b.p.Flush(t)
	c := b.p.cl.Costs
	t.Charge(sim.CatLocal, c.BarrierNative)

	// Arrival announcement to the manager node (a rehome may move it).
	b.p.cl.Wire.Do(t, wire.Op{Kind: wire.KindBarrierArrive, Dst: b.mgr})
	if inj := b.p.cl.Fault; b.mgr != 0 && inj.Detached(b.mgr, t.Now()) {
		// The barrier's arrival counter is managed on a node that has left:
		// the observing party re-homes the counter state to the master (one
		// bulk state transfer) before arriving.
		b.p.cl.Wire.Do(t, wire.Op{Kind: wire.KindRehome, Dst: b.mgr, Arg: uint64(len(b.name))})
		b.mgr = 0
		b.p.cl.Ctr.Add(t.NodeID, stats.EvBarrierRehomes, 1)
		inj.NoteRehome(t.NodeID)
	}
	if now := t.Now(); now > b.arrived {
		b.arrived = now
	}
	b.count++
	var release sim.Time
	switch {
	case b.count > parties:
		panic(fmt.Sprintf("genima: barrier %q overfilled (%d > %d parties)",
			b.name, b.count, parties))
	case b.count == parties:
		release = b.arrived
		b.release = release
		ws := b.waiters
		b.waiters = nil
		b.count = 0
		b.arrived = 0
		if prof := b.p.cl.Prof; prof != nil && prof.Epochs != nil {
			// The last arriver closes the epoch: snapshot the counters at
			// the release instant for the per-epoch windows.
			prof.Epochs.Mark(b.name, int64(b.release))
		}
		for _, w := range ws {
			w.Unpark(release)
		}
	default:
		// Park until the last arriver releases the generation; the grant
		// carries the release instant.
		b.waiters = append(b.waiters, t)
		release = t.Park()
	}

	t.WaitUntil(release)
	b.p.ApplyAcquire(t)
	b.p.cl.Ctr.Add(t.NodeID, stats.EvBarriers, 1)
	t.CloseSpan()
}
