package cables

import "cables/internal/sim"

// This file rounds out the pthreads API surface beyond the paper's core
// three primitives: trylock, once-initialization, reader/writer locks and
// detached threads.  All are built from the same underlying mechanisms
// (system locks, the ACB, conditions), as a real CableS port would build
// them.

// TryLock attempts the mutex without blocking (pthread_mutex_trylock); it
// reports whether the lock was obtained.  A failed attempt still costs the
// remote probe when the lock is managed elsewhere.
func (m *Mutex) TryLock(t *sim.Task) bool {
	return m.rt.proto.NewLock(m.id).TryAcquire(t)
}

// Once runs its function exactly once across the whole cluster
// (pthread_once): the winner executes under a system lock, later callers
// see the done flag via the usual coherence path.
type Once struct {
	rt   *Runtime
	mx   *Mutex
	done bool
}

// NewOnce registers a once-control with the ACB.
func (rt *Runtime) NewOnce(t *sim.Task) *Once {
	return &Once{rt: rt, mx: rt.NewMutex(t)}
}

// Do runs fn if no other thread has; all callers return only after fn ran.
func (o *Once) Do(th *Thread, fn func()) {
	if o.done {
		o.rt.chargeAdmin(th.Task) // flag check via ACB
		return
	}
	o.mx.Lock(th.Task)
	if !o.done {
		fn()
		o.done = true
	}
	o.mx.Unlock(th.Task)
}

// RWLock is a pthread rwlock built from a mutex and two conditions —
// writer-preferring, the common NPTL default.  readers, writer and wrWait
// are read and updated only under mx.
type RWLock struct {
	rt      *Runtime
	mx      *Mutex
	rdOK    *Cond
	wrOK    *Cond
	readers int
	writer  bool
	wrWait  int
}

// NewRWLock registers a reader/writer lock (pthread_rwlock_init).
func (rt *Runtime) NewRWLock(t *sim.Task) *RWLock {
	return &RWLock{
		rt:   rt,
		mx:   rt.NewMutex(t),
		rdOK: rt.NewCond(t),
		wrOK: rt.NewCond(t),
	}
}

// RLock acquires the lock shared (pthread_rwlock_rdlock).
func (l *RWLock) RLock(th *Thread) {
	l.mx.Lock(th.Task)
	for l.writer || l.wrWait > 0 {
		l.rdOK.Wait(th, l.mx)
	}
	l.readers++
	l.mx.Unlock(th.Task)
}

// RUnlock releases a shared hold.
func (l *RWLock) RUnlock(th *Thread) {
	l.mx.Lock(th.Task)
	l.readers--
	if l.readers == 0 {
		l.wrOK.Signal(th.Task)
	}
	l.mx.Unlock(th.Task)
}

// Lock acquires the lock exclusive (pthread_rwlock_wrlock).
func (l *RWLock) Lock(th *Thread) {
	l.mx.Lock(th.Task)
	l.wrWait++
	for l.writer || l.readers > 0 {
		l.wrOK.Wait(th, l.mx)
	}
	l.writer = true
	l.wrWait--
	l.mx.Unlock(th.Task)
}

// Unlock releases the exclusive hold.
func (l *RWLock) Unlock(th *Thread) {
	l.mx.Lock(th.Task)
	l.writer = false
	l.wrOK.Signal(th.Task)
	l.rdOK.Broadcast(th.Task)
	l.mx.Unlock(th.Task)
}

// Detach marks th detached (pthread_detach): nobody will join it; its node
// bookkeeping is reclaimed when it exits, as usual.
func (rt *Runtime) Detach(t *sim.Task, th *Thread) {
	rt.chargeAdmin(t)
	// Joining a detached thread is a programming error in POSIX; here its
	// sim.Exit simply never gets a Wait, which is already safe.
}
