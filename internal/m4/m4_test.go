package m4_test

import (
	"sync"
	"testing"

	"cables/internal/apps/appapi"
	"cables/internal/m4"
	"cables/internal/memsys"
	"cables/internal/sim"
	"cables/internal/stats"
)

func TestConfigDefaultsAndShape(t *testing.T) {
	rt := m4.New(m4.Config{Procs: 7}) // odd count, default SMP width
	if rt.Procs() != 7 {
		t.Errorf("procs: %d", rt.Procs())
	}
	if got := rt.Cluster().NumNodes(); got != 4 { // ceil(7/2)
		t.Errorf("nodes: %d", got)
	}
	if appapi.BackendName(rt) != "genima" {
		t.Errorf("backend: %s", appapi.BackendName(rt))
	}
}

func TestInvalidProcsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	m4.New(m4.Config{Procs: 0})
}

// TestSpawnPlacesRoundRobin: workers are distributed over all nodes.
func TestSpawnPlacesRoundRobin(t *testing.T) {
	rt := m4.New(m4.Config{Procs: 8, ProcsPerNode: 2, ArenaBytes: 8 << 20})
	var mu sync.Mutex
	nodes := map[int]int{}
	var ids []int
	for i := 0; i < 8; i++ {
		ids = append(ids, rt.Spawn(rt.Main(), func(th *sim.Task) {
			mu.Lock()
			nodes[th.NodeID]++
			mu.Unlock()
		}))
	}
	for _, id := range ids {
		rt.Join(rt.Main(), id)
	}
	if len(nodes) != 4 {
		t.Fatalf("used %d nodes: %v", len(nodes), nodes)
	}
	for n, c := range nodes {
		if c != 2 {
			t.Errorf("node %d got %d workers", n, c)
		}
	}
}

// TestJoinIsRepeatable: WAIT_FOR_END-style sweeps may join twice.
func TestJoinIsRepeatable(t *testing.T) {
	rt := m4.New(m4.Config{Procs: 2, ProcsPerNode: 2, ArenaBytes: 8 << 20})
	id := rt.Spawn(rt.Main(), func(th *sim.Task) { th.Compute(sim.Millisecond) })
	rt.Join(rt.Main(), id)
	rt.Join(rt.Main(), id) // must not hang or panic
	if rt.Main().Now() < sim.Millisecond {
		t.Error("join did not merge child clock")
	}
}

func TestJoinUnknownPanics(t *testing.T) {
	rt := m4.New(m4.Config{Procs: 2, ProcsPerNode: 2, ArenaBytes: 8 << 20})
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	rt.Join(rt.Main(), 999)
}

// TestFinishCoversAllThreads: Finish is the max over worker and main ends.
func TestFinishCoversAllThreads(t *testing.T) {
	rt := m4.New(m4.Config{Procs: 2, ProcsPerNode: 2, ArenaBytes: 8 << 20})
	id := rt.Spawn(rt.Main(), func(th *sim.Task) { th.Compute(7 * sim.Millisecond) })
	rt.Join(rt.Main(), id)
	if got := rt.Finish(); got < 7*sim.Millisecond {
		t.Errorf("finish: %v", got)
	}
}

// TestJoinAcquireWhileSiblingReads: worker 0 exits early, so the
// coordinator's Join(0) applies its acquire — invalidating node 0's copies
// of the pages node 1 keeps writing — while worker 2, node 0's other
// thread, is still reading those pages.  The coordinator runs in the cell's
// one scheduler slot, so the acquire lands at the same point of worker 2's
// reads every run: checksum, end time and counters repeat exactly, and no
// stall ever adds a second slot.
func TestJoinAcquireWhileSiblingReads(t *testing.T) {
	const pages, rounds = 8, 80
	type outcome struct {
		sum    int64
		end    sim.Time
		faults int64
		ctr    string
	}
	run := func() outcome {
		rt := m4.New(m4.Config{Procs: 4, ProcsPerNode: 2, ArenaBytes: 8 << 20})
		main, acc := rt.Main(), rt.Acc()
		base, err := rt.Malloc(main, "shared", pages*memsys.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		sp := rt.Protocol().Space()
		for p := 0; p < pages; p++ {
			sp.SetHome(sp.PageOf(base)+memsys.PageID(p), 1)
		}
		addr := func(p int) memsys.Addr { return base + memsys.Addr(p*memsys.PageSize) }
		var sum int64
		ids := []int{
			rt.Spawn(main, func(th *sim.Task) { th.Compute(5 * sim.Millisecond) }),
			rt.Spawn(main, func(th *sim.Task) { // node 1: write and release
				for r := 1; r <= rounds; r++ {
					for p := 0; p < pages; p++ {
						acc.WriteI64(th, addr(p), int64(r*pages+p))
					}
					rt.Protocol().Flush(th)
					th.Compute(100 * sim.Microsecond)
				}
			}),
			rt.Spawn(main, func(th *sim.Task) { // node 0: read, never acquire
				for r := 0; r < rounds; r++ {
					for p := 0; p < pages; p++ {
						sum += acc.ReadI64(th, addr(p))
					}
					th.Compute(100 * sim.Microsecond)
				}
			}),
		}
		for _, id := range ids {
			rt.Join(main, id)
		}
		ctr := rt.Cluster().Ctr
		return outcome{sum, rt.Finish(), ctr.Load(stats.EvRemotePageFaults), ctr.Snapshot().String()}
	}
	stalls := sim.Stalls()
	want := run()
	if want.faults <= pages {
		t.Fatalf("node 0 fetched %d pages, want > %d: no join acquire invalidated the reader's copies", want.faults, pages)
	}
	for i := 1; i < 20; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d differs:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if n := sim.Stalls() - stalls; n != 0 {
		t.Errorf("stall watchdog added %d execution slots", n)
	}
}

// TestRawWaitsLendOneSlot reproduces the two raw host waits the repository
// benchmark's probes make inside a cell, on a real runtime: workers that
// pass a turn over raw channels instead of Park, and a coordinator blocked
// in a WaitGroup instead of Join.  Each shape stalls the cell's one slot
// once; the watchdog lends a second slot until the next release, so the
// cell runs two tasks at once until a holder parks, yields or exits.  The
// shapes are safe only because, after its raw send or wg.Done, the waker
// touches none of the cell's state until it releases.  Run under -race
// (make race), this is the proof that the lock-free protocol, page-copy
// and counter state survive that loan.
func TestRawWaitsLendOneSlot(t *testing.T) {
	const pages = 4
	t.Run("lock ping-pong", func(t *testing.T) {
		const rounds = 100
		stalls := sim.Stalls()
		rt := m4.New(m4.Config{Procs: 2, ProcsPerNode: 1, ArenaBytes: 8 << 20})
		main, acc := rt.Main(), rt.Acc()
		addr, err := rt.Malloc(main, "pingpong", pages*memsys.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		slot := func(p int) memsys.Addr { return addr + memsys.Addr(p*memsys.PageSize) }
		for p := 0; p < pages; p++ {
			acc.WriteI64(main, slot(p), 0)
		}
		rt.Protocol().Flush(main)
		turn := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
		ids := make([]int, 2)
		for w := range ids {
			ids[w] = rt.Spawn(main, func(th *sim.Task) {
				for i := 0; i < rounds; i++ {
					<-turn[w]
					rt.Lock(th, 1)
					for p := 0; p < pages; p++ {
						acc.WriteI64(th, slot(p), acc.ReadI64(th, slot(p))+1)
					}
					rt.Unlock(th, 1)
					turn[1-w] <- struct{}{}
				}
			})
		}
		turn[0] <- struct{}{}
		for _, id := range ids {
			rt.Join(main, id)
		}
		rt.Lock(main, 1)
		for p := 0; p < pages; p++ {
			if got := acc.ReadI64(main, slot(p)); got != 2*rounds {
				t.Errorf("page %d: got %d want %d", p, got, 2*rounds)
			}
		}
		rt.Unlock(main, 1)
		if n := sim.Stalls() - stalls; n != 1 {
			t.Errorf("stall watchdog lent %d slots, want 1", n)
		}
	})
	t.Run("coordinator in WaitGroup", func(t *testing.T) {
		stalls := sim.Stalls()
		rt := m4.New(m4.Config{Procs: 4, ProcsPerNode: 2, ArenaBytes: 8 << 20})
		main, acc := rt.Main(), rt.Acc()
		addr, err := rt.Malloc(main, "remote", pages*memsys.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		slot := func(p int) memsys.Addr { return addr + memsys.Addr(p*memsys.PageSize) }
		for p := 0; p < pages; p++ {
			acc.WriteI64(main, slot(p), 1) // first touch homes the page on node 0
		}
		rt.Protocol().Flush(main)
		rt.Join(main, rt.Spawn(main, func(*sim.Task) {})) // round-robin: lands on node 0
		var wg sync.WaitGroup
		wg.Add(1)
		node := -1
		id := rt.Spawn(main, func(th *sim.Task) {
			defer wg.Done()
			node = th.NodeID
			for p := 0; p < pages; p++ {
				acc.WriteI64(th, slot(p), acc.ReadI64(th, slot(p))+int64(10*p))
			}
			rt.Protocol().Flush(th)
		})
		wg.Wait()
		if node != 1 {
			t.Fatalf("worker ran on node %d, want 1 (remote from the pages' home)", node)
		}
		rt.Join(main, id)
		for p := 0; p < pages; p++ {
			if got, want := acc.ReadI64(main, slot(p)), int64(1+10*p); got != want {
				t.Errorf("page %d: got %d want %d", p, got, want)
			}
		}
		if n := sim.Stalls() - stalls; n != 1 {
			t.Errorf("stall watchdog lent %d slots, want 1", n)
		}
	})
}
