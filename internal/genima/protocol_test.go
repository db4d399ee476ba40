package genima_test

import (
	"testing"

	"cables/internal/m4"
	"cables/internal/memsys"
	"cables/internal/sim"
	"cables/internal/stats"
)

func newRT(t *testing.T, procs int) *m4.Runtime {
	t.Helper()
	return m4.New(m4.Config{Procs: procs, ProcsPerNode: 2, ArenaBytes: 32 << 20})
}

// joinAll joins the workers ids from the coordinator.
func joinAll(rt *m4.Runtime, ids []int) {
	for _, id := range ids {
		rt.Join(rt.Main(), id)
	}
}

// TestSingleWriterBlocks has each worker write its own block, then after a
// barrier every worker verifies every other worker's block — the basic
// coherence round trip (diff flush at release, invalidation + fetch at
// acquire).
func TestSingleWriterBlocks(t *testing.T) {
	const procs = 8
	const perWorker = 2048 // doubles; spans several pages each
	rt := newRT(t, procs)
	main := rt.Main()
	acc := rt.Acc()
	base, err := rt.Malloc(main, "blocks", int64(procs*perWorker*8))
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}

	ids := make([]int, procs)
	for w := 0; w < procs; w++ {
		w := w
		ids[w] = rt.Spawn(main, func(th *sim.Task) {
			my := base + memsys.Addr(w*perWorker*8)
			for i := 0; i < perWorker; i++ {
				acc.WriteF64(th, my+memsys.Addr(i*8), float64(w*perWorker+i))
			}
			rt.Barrier(th, "b", procs)
			for o := 0; o < procs; o++ {
				other := base + memsys.Addr(o*perWorker*8)
				for i := 0; i < perWorker; i += 97 {
					got := acc.ReadF64(th, other+memsys.Addr(i*8))
					want := float64(o*perWorker + i)
					if got != want {
						t.Errorf("worker %d: block %d idx %d: got %v want %v", w, o, i, got, want)
						return
					}
				}
			}
		})
	}
	for _, id := range ids {
		rt.Join(main, id)
	}
	if f := rt.Cluster().Ctr.Load(stats.EvPageFaults); f == 0 {
		t.Error("expected page faults, saw none")
	}
	// Writers are first-touch homes of their own blocks, so readers fault
	// remotely but no diffs are needed.
	if f := rt.Cluster().Ctr.Load(stats.EvRemotePageFaults); f == 0 {
		t.Error("expected remote page faults, saw none")
	}
}

// TestLockCounter increments a shared counter under a system lock from all
// workers; release consistency must make every increment visible.
func TestLockCounter(t *testing.T) {
	const procs, iters = 8, 50
	rt := newRT(t, procs)
	main := rt.Main()
	acc := rt.Acc()
	addr, err := rt.Malloc(main, "ctr", 8)
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	acc.WriteI64(main, addr, 0)
	rt.Protocol().Flush(main)

	var ids []int
	for w := 0; w < procs; w++ {
		ids = append(ids, rt.Spawn(main, func(th *sim.Task) {
			for i := 0; i < iters; i++ {
				rt.Lock(th, 1)
				v := acc.ReadI64(th, addr)
				acc.WriteI64(th, addr, v+1)
				rt.Unlock(th, 1)
			}
		}))
	}
	joinAll(rt, ids)
	rt.Lock(main, 1)
	got := acc.ReadI64(main, addr)
	rt.Unlock(main, 1)
	if got != procs*iters {
		t.Fatalf("counter: got %d want %d", got, procs*iters)
	}
}

// TestFalseSharing has two workers on different nodes write interleaved
// words of the same page under distinct locks; diffs must merge at the home
// without losing either writer's updates (multiple-writer protocol).
func TestFalseSharing(t *testing.T) {
	const words = 512 // one page
	rt := newRT(t, 4)
	main := rt.Main()
	acc := rt.Acc()
	addr, err := rt.Malloc(main, "page", words*8)
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}

	var ids []int
	for w := 0; w < 2; w++ {
		w := w
		ids = append(ids, rt.Spawn(main, func(th *sim.Task) {
			rt.Barrier(th, "start", 2)
			for i := w; i < words; i += 2 {
				acc.WriteI64(th, addr+memsys.Addr(i*8), int64(1000+i))
			}
			rt.Barrier(th, "end", 2)
		}))
	}
	joinAll(rt, ids)
	rt.Lock(main, 9)
	rt.Unlock(main, 9)
	for i := 0; i < words; i++ {
		if got := acc.ReadI64(main, addr+memsys.Addr(i*8)); got != int64(1000+i) {
			t.Fatalf("word %d: got %d want %d", i, got, 1000+i)
		}
	}
}

// TestBarrierTimeMerges checks that a barrier advances every participant to
// at least the slowest arrival's virtual time.
func TestBarrierTimeMerges(t *testing.T) {
	rt := newRT(t, 4)
	main := rt.Main()
	var ends []sim.Time // the workers run one at a time in the cell's slot
	var ids []int
	for w := 0; w < 4; w++ {
		w := w
		ids = append(ids, rt.Spawn(main, func(th *sim.Task) {
			th.Compute(sim.Time(w+1) * sim.Millisecond)
			rt.Barrier(th, "b", 4)
			ends = append(ends, th.Now())
		}))
	}
	for _, id := range ids {
		rt.Join(main, id)
	}
	for _, e := range ends {
		if e < 4*sim.Millisecond {
			t.Errorf("participant left barrier at %v, before slowest arrival", e)
		}
	}
}

// TestStaticRegistrationLimit verifies that the base system's G_MALLOC
// pattern exhausts NIC regions with many segments on many nodes — the
// failure mode that kept OCEAN from running at 32 processors on the
// original system.
func TestStaticRegistrationLimit(t *testing.T) {
	rt := newRT(t, 32) // 16 nodes
	main := rt.Main()
	var err error
	for i := 0; i < 60; i++ {
		if _, err = rt.Malloc(main, "seg", 256<<10); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("expected region-limit failure at 16 nodes x 60 segments")
	}

	rt8 := newRT(t, 8) // 4 nodes: same segments fit
	for i := 0; i < 60; i++ {
		if _, err := rt8.Malloc(rt8.Main(), "seg", 256<<10); err != nil {
			t.Fatalf("unexpected failure at 4 nodes: %v", err)
		}
	}
}
