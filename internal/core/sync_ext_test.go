package cables_test

import (
	"testing"

	cables "cables/internal/core"
	"cables/internal/memsys"
	"cables/internal/stats"
)

func TestMutexTryLock(t *testing.T) {
	rt := newRT(2)
	main := rt.Main()
	mx := rt.NewMutex(main.Task)
	if !mx.TryLock(main.Task) {
		t.Fatal("trylock of free mutex failed")
	}
	var locked bool
	th := rt.Create(main.Task, func(th *cables.Thread) {
		locked = mx.TryLock(th.Task)
	})
	rt.Join(main.Task, th)
	if locked {
		t.Error("trylock of held mutex succeeded")
	}
	mx.Unlock(main.Task)
	if !mx.TryLock(main.Task) {
		t.Error("trylock after unlock failed")
	}
	mx.Unlock(main.Task)
}

func TestOnceRunsExactlyOnce(t *testing.T) {
	rt := newRT(4)
	main := rt.Main()
	once := rt.NewOnce(main.Task)
	runs := 0
	var ths []*cables.Thread
	for i := 0; i < 8; i++ {
		ths = append(ths, rt.Create(main.Task, func(th *cables.Thread) {
			once.Do(th, func() {
				runs++
			})
		}))
	}
	for _, th := range ths {
		rt.Join(main.Task, th)
	}
	if runs != 1 {
		t.Errorf("once ran %d times", runs)
	}
}

func TestRWLockAllowsConcurrentReaders(t *testing.T) {
	rt := newRT(4)
	main := rt.Main()
	l := rt.NewRWLock(main.Task)
	acc := rt.Acc()
	data, err := rt.Mem().Malloc(main.Task, 8)
	if err != nil {
		t.Fatal(err)
	}

	// Writer sets the value.
	wth := rt.Create(main.Task, func(th *cables.Thread) {
		l.Lock(th)
		acc.WriteI64(th.Task, data, 7)
		l.Unlock(th)
	})
	rt.Join(main.Task, wth)

	// Readers overlap: all take RLock, rendezvous, then release.  Each
	// reader parks holding the lock; the last one in wakes main.
	const readers = 4
	entered := 0
	var ths []*cables.Thread
	for i := 0; i < readers; i++ {
		ths = append(ths, rt.Create(main.Task, func(th *cables.Thread) {
			l.RLock(th)
			if got := acc.ReadI64(th.Task, data); got != 7 {
				t.Errorf("reader saw %d", got)
			}
			if entered++; entered == readers {
				main.Task.Unpark(th.Task.Now())
			}
			th.Task.Park()
			l.RUnlock(th)
		}))
	}
	main.Task.Park() // proves concurrency: all readers inside at once
	for _, th := range ths {
		th.Task.Unpark(main.Task.Now())
	}
	for _, th := range ths {
		rt.Join(main.Task, th)
	}

	// Writer again after readers drained.
	wth2 := rt.Create(main.Task, func(th *cables.Thread) {
		l.Lock(th)
		acc.WriteI64(th.Task, data, 9)
		l.Unlock(th)
	})
	rt.Join(main.Task, wth2)
	l.RLock(rt.Main())
	if got := acc.ReadI64(main.Task, data); got != 9 {
		t.Errorf("after writer: %d", got)
	}
	l.RUnlock(rt.Main())
}

// TestMigrationPolicy: a unit homed on the wrong node accumulates remote
// faults; MigrateHotUnits re-homes it and subsequent faults become local.
func TestMigrationPolicy(t *testing.T) {
	rt := cables.New(cables.Config{
		MaxNodes: 2, ProcsPerNode: 2, ThreadsPerNode: 1,
		PrestartNodes: 2, ArenaBytes: 64 << 20,
	})
	main := rt.Start()
	acc := rt.Acc()
	mem := rt.Mem()
	mem.EnableMigrationTracking()

	a, err := mem.Malloc(main.Task, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	// Master touches first: unit homed on node 0.
	acc.WriteI64(main.Task, a, 1)
	sp := rt.Protocol().Space()
	if sp.Home(sp.PageOf(a)) != 0 {
		t.Fatal("precondition: unit not on node 0")
	}

	// A thread on node 1 keeps re-reading the unit across sync points.
	mx := rt.NewMutex(main.Task)
	th := rt.Create(main.Task, func(th *cables.Thread) {
		for i := 0; i < 6; i++ {
			mx.Lock(th.Task)
			acc.WriteI64(th.Task, a+memsys.Addr(i%8*memsys.PageSize), int64(i))
			mx.Unlock(th.Task)
			// The lock round trip invalidates and refaults the page.
		}
	})
	rt.Join(main.Task, th)

	if n := rt.Protocol().Cluster().Ctr.Load(stats.EvRemotePageFaults); n == 0 {
		t.Fatal("no remote faults recorded")
	}
	if moved := mem.MigrateHotUnits(main.Task, 2); moved == 0 {
		t.Fatal("migration policy moved nothing")
	}
	if got := sp.Home(sp.PageOf(a)); got != 1 {
		t.Errorf("unit home after migration: %d want 1", got)
	}

	// The values the worker wrote survive the move.
	mx.Lock(main.Task)
	mx.Unlock(main.Task)
	for i := 0; i < 6; i++ {
		addr := a + memsys.Addr(i%8*memsys.PageSize)
		if got := acc.ReadI64(main.Task, addr); got != int64(i) {
			t.Errorf("page %d after migration: got %d want %d", i, got, i)
		}
	}
}
