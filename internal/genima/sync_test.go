package genima_test

import (
	"testing"

	"cables/internal/sim"
	"cables/internal/stats"
)

// TestLockHandoffAdvancesWaiterClock: a contended acquire resumes no
// earlier than the holder's release instant.
func TestLockHandoffAdvancesWaiterClock(t *testing.T) {
	rt := newRT(t, 4)
	main := rt.Main()
	l := rt.Protocol().NewLock(7)

	holding := make(chan struct{})
	var waiterNow sim.Time
	var ids []int
	ids = append(ids, rt.Spawn(main, func(th *sim.Task) {
		l.Acquire(th)
		close(holding)
		th.Compute(5 * sim.Millisecond)
		l.Release(th)
	}))
	ids = append(ids, rt.Spawn(main, func(th *sim.Task) {
		<-holding
		l.Acquire(th)
		waiterNow = th.Now()
		l.Release(th)
	}))
	joinAll(rt, ids)
	if waiterNow < 5*sim.Millisecond {
		t.Errorf("waiter resumed at %v, before holder's 5ms compute", waiterNow)
	}
}

// TestUnheldReleasePanics guards against lock misuse.
func TestUnheldReleasePanics(t *testing.T) {
	rt := newRT(t, 2)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	rt.Protocol().NewLock(1).Release(rt.Main())
}

// TestBarrierOverfillPanics guards party-count misuse.
func TestBarrierOverfillPanics(t *testing.T) {
	rt := newRT(t, 2)
	b := rt.Protocol().NewBarrier("x")
	done := make(chan struct{})
	go func() {
		defer func() {
			recover()
			close(done)
		}()
		w1 := rt.Cluster().NewTask(0, 0)
		b.Wait(w1, 1) // completes alone
		b.Wait(w1, 1) // next generation, completes alone
	}()
	<-done
}

// TestBarrierReusableAcrossGenerations: the same barrier object works for
// many generations with consistent coherence.
func TestBarrierReusableAcrossGenerations(t *testing.T) {
	const procs, gens = 4, 20
	rt := newRT(t, procs)
	main := rt.Main()
	acc := rt.Acc()
	addr, err := rt.Malloc(main, "gen", 8)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for w := 0; w < procs; w++ {
		w := w
		ids = append(ids, rt.Spawn(main, func(th *sim.Task) {
			for g := 0; g < gens; g++ {
				if g%procs == w {
					acc.WriteI64(th, addr, int64(g))
				}
				rt.Barrier(th, "g", procs)
				if got := acc.ReadI64(th, addr); got != int64(g) {
					t.Errorf("worker %d gen %d: got %d", w, g, got)
					return
				}
				rt.Barrier(th, "g2", procs)
			}
		}))
	}
	joinAll(rt, ids)
}

// TestMigrationMechanism: PublishInvalidate makes stale copies refetch
// after a page's home moves.
func TestMigrationMechanism(t *testing.T) {
	rt := newRT(t, 4)
	main := rt.Main()
	acc := rt.Acc()
	proto := rt.Protocol()
	sp := proto.Space()
	addr, err := rt.Malloc(main, "mig", 8)
	if err != nil {
		t.Fatal(err)
	}
	acc.WriteI64(main, addr, 11)
	proto.Flush(main)
	pid := sp.PageOf(addr)
	home := sp.Home(pid)

	// Every node reads (and caches) the page.
	var ids []int
	for w := 0; w < 4; w++ {
		ids = append(ids, rt.Spawn(main, func(th *sim.Task) {
			rt.Lock(th, 1)
			rt.Unlock(th, 1)
			if got := acc.ReadI64(th, addr); got != 11 {
				t.Errorf("pre-migration read: %d", got)
			}
		}))
	}
	joinAll(rt, ids)

	// Move the home by hand (the CableS mechanism does this plus costs).
	dst := (home + 1) % 2
	sc, dc := sp.Copy(home, pid), sp.Copy(dst, pid)
	dc.AdoptFrame(sc)
	dc.SetValid(true)
	sc.SetValid(false)
	sp.SetHome(pid, dst)
	proto.PublishInvalidate(dst, pid)

	// After the next acquire, everyone still reads the value — now served
	// by the new home.
	ids = nil
	for w := 0; w < 4; w++ {
		ids = append(ids, rt.Spawn(main, func(th *sim.Task) {
			rt.Lock(th, 1)
			rt.Unlock(th, 1)
			if got := acc.ReadI64(th, addr); got != 11 {
				t.Errorf("post-migration read: %d", got)
			}
		}))
	}
	joinAll(rt, ids)
	if sp.Home(pid) != dst {
		t.Error("home not moved")
	}
}

// TestForcedDiffOnInvalidation: a node with unflushed writes to a page that
// gets invalidated (false sharing) must not lose them.
func TestForcedDiffOnInvalidation(t *testing.T) {
	rt := newRT(t, 4)
	main := rt.Main()
	acc := rt.Acc()
	addr, err := rt.Malloc(main, "fs", 2*8)
	if err != nil {
		t.Fatal(err)
	}
	// Home the page on the main node so both workers write remotely.
	acc.WriteI64(main, addr, 0)
	acc.WriteI64(main, addr+8, 0)
	rt.Protocol().Flush(main)

	var ids []int
	sync1 := make(chan struct{})
	ids = append(ids, rt.Spawn(main, func(th *sim.Task) {
		acc.WriteI64(th, addr, 111) // dirty word 0, do NOT release yet
		close(sync1)
		rt.Barrier(th, "fs", 2) // release happens here
	}))
	ids = append(ids, rt.Spawn(main, func(th *sim.Task) {
		<-sync1
		// Writer 2 updates word 1 under a lock, forcing writer 1's node to
		// see a write notice for the page while it still has dirty data.
		rt.Lock(th, 3)
		acc.WriteI64(th, addr+8, 222)
		rt.Unlock(th, 3)
		rt.Barrier(th, "fs", 2)
	}))
	joinAll(rt, ids)
	rt.Lock(main, 3)
	rt.Unlock(main, 3)
	if got := acc.ReadI64(main, addr); got != 111 {
		t.Errorf("word 0 lost: %d", got)
	}
	if got := acc.ReadI64(main, addr+8); got != 222 {
		t.Errorf("word 1 lost: %d", got)
	}
}

// TestReadOnlyPagesNeverDiff: pages that are only read produce no diffs.
func TestReadOnlyPagesNeverDiff(t *testing.T) {
	rt := newRT(t, 8)
	main := rt.Main()
	acc := rt.Acc()
	addr, err := rt.Malloc(main, "ro", 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 2048)
	for i := range buf {
		buf[i] = float64(i)
	}
	acc.WriteF64s(main, addr, buf)
	rt.Protocol().Flush(main)
	before := rt.Cluster().Ctr.Load(stats.EvDiffsSent)
	var ids []int
	for w := 0; w < 8; w++ {
		ids = append(ids, rt.Spawn(main, func(th *sim.Task) {
			rt.Barrier(th, "ro", 8)
			dst := make([]float64, 2048)
			acc.ReadF64s(th, addr, dst)
			rt.Barrier(th, "ro2", 8)
		}))
	}
	joinAll(rt, ids)
	if got := rt.Cluster().Ctr.Load(stats.EvDiffsSent); got != before {
		t.Errorf("read-only workload produced %d diffs", got-before)
	}
}

// TestSpawnJoinVisibility: writes before Spawn are visible to the child;
// child writes are visible after Join (POSIX create/join semantics).
func TestSpawnJoinVisibility(t *testing.T) {
	rt := newRT(t, 4)
	main := rt.Main()
	acc := rt.Acc()
	addr, err := rt.Malloc(main, "vis", 16)
	if err != nil {
		t.Fatal(err)
	}
	acc.WriteI64(main, addr, 5)
	id := rt.Spawn(main, func(th *sim.Task) {
		if got := acc.ReadI64(th, addr); got != 5 {
			t.Errorf("child saw %d", got)
		}
		acc.WriteI64(th, addr+8, 6)
	})
	rt.Join(main, id)
	if got := acc.ReadI64(main, addr+8); got != 6 {
		t.Errorf("parent saw %d after join", got)
	}
}
