package cables_test

import (
	"sync"
	"testing"

	cables "cables/internal/core"
	"cables/internal/memsys"
	"cables/internal/sim"
	"cables/internal/stats"
)

func newRT(maxNodes int) *cables.Runtime {
	rt := cables.New(cables.Config{
		MaxNodes:     maxNodes,
		ProcsPerNode: 2,
		ArenaBytes:   64 << 20,
	})
	rt.Start()
	return rt
}

// TestDynamicNodeAttach checks that creating more threads than fit on the
// master node attaches new nodes on the fly, charging the attach cost.
func TestDynamicNodeAttach(t *testing.T) {
	rt := newRT(4)
	main := rt.Main()
	if got := rt.AttachedNodes(); got != 1 {
		t.Fatalf("attached at start: got %d want 1", got)
	}
	var wg sync.WaitGroup
	release := make(chan struct{})
	var threads []*cables.Thread
	for i := 0; i < 7; i++ { // main + 7 = 8 threads = 4 nodes x 2
		wg.Add(1)
		threads = append(threads, rt.Create(main.Task, func(th *cables.Thread) {
			wg.Done()
			// A raw host wait: release the scheduler slot around it so
			// the other threads can start.
			th.Task.Block()
			<-release
			th.Task.Unblock()
		}))
	}
	wg.Wait()
	if got := rt.AttachedNodes(); got != 4 {
		t.Errorf("attached after creates: got %d want 4", got)
	}
	if rt.Cluster().Ctr.Load(stats.EvNodesAttached) != 3 {
		t.Errorf("attach count: got %d want 3", rt.Cluster().Ctr.Load(stats.EvNodesAttached))
	}
	// Three attaches at ~3.69 s each dominate the main thread's clock.
	if main.Task.Now() < 3*3690*sim.Millisecond {
		t.Errorf("main clock %v does not reflect three node attaches", main.Task.Now())
	}
	close(release)
	for _, th := range threads {
		rt.Join(main.Task, th)
	}
	// All worker nodes emptied: dynamic detach should have kicked in.
	if got := rt.AttachedNodes(); got != 1 {
		t.Errorf("attached after joins: got %d want 1 (dynamic detach)", got)
	}
}

// TestMallocFreeReuse allocates, frees and re-allocates shared memory during
// execution — the pattern the base system's template forbids.
func TestMallocFreeReuse(t *testing.T) {
	rt := newRT(2)
	main := rt.Main().Task
	mem := rt.Mem()
	a, err := mem.Malloc(main, 4096)
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	rt.Acc().WriteI64(main, a, 42)
	if err := mem.Free(main, a); err != nil {
		t.Fatalf("free: %v", err)
	}
	b, err := mem.Malloc(main, 4096)
	if err != nil {
		t.Fatalf("re-malloc: %v", err)
	}
	if b != a {
		t.Errorf("free list not reused: got %#x want %#x", uint64(b), uint64(a))
	}
	if err := mem.Free(main, b); err != nil {
		t.Fatalf("free: %v", err)
	}
	if err := mem.Free(main, b); err == nil {
		t.Error("double free not detected")
	}
}

// TestGlobalStaticVariables verifies the GLOBAL_DATA region: carved at
// startup, homed on the master, shared by all threads.
func TestGlobalStaticVariables(t *testing.T) {
	rt := newRT(2)
	main := rt.Main()
	g := rt.Mem().GlobalVar(8)
	acc := rt.Acc()
	acc.WriteI64(main.Task, g, 7)

	mx := rt.NewMutex(main.Task)
	mx.Lock(main.Task)
	mx.Unlock(main.Task)

	done := make(chan int64, 4)
	var ths []*cables.Thread
	for i := 0; i < 4; i++ {
		ths = append(ths, rt.Create(main.Task, func(th *cables.Thread) {
			mx.Lock(th.Task)
			v := acc.ReadI64(th.Task, g)
			acc.WriteI64(th.Task, g, v+1)
			mx.Unlock(th.Task)
			done <- v
		}))
	}
	for _, th := range ths {
		rt.Join(main.Task, th)
	}
	mx.Lock(main.Task)
	if got := acc.ReadI64(main.Task, g); got != 11 {
		t.Errorf("GLOBAL counter: got %d want 11", got)
	}
	mx.Unlock(main.Task)
	if home := rt.Protocol().Space().Home(rt.Protocol().Space().PageOf(g)); home != 0 {
		t.Errorf("GLOBAL_DATA home: got node %d want 0", home)
	}
}

// TestCondProducerConsumer runs a bounded-buffer producer/consumer over
// condition variables — the PC program of Table 5 in miniature.
func TestCondProducerConsumer(t *testing.T) {
	rt := newRT(2)
	main := rt.Main()
	acc := rt.Acc()
	mem := rt.Mem()
	buf, err := mem.Malloc(main.Task, 16) // {value, full}
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	mx := rt.NewMutex(main.Task)
	notFull := rt.NewCond(main.Task)
	notEmpty := rt.NewCond(main.Task)

	const items = 40
	sum := make(chan int64, 1)
	producer := rt.Create(main.Task, func(th *cables.Thread) {
		for i := 1; i <= items; i++ {
			mx.Lock(th.Task)
			for acc.ReadI64(th.Task, buf+8) == 1 {
				notFull.Wait(th, mx)
			}
			acc.WriteI64(th.Task, buf, int64(i))
			acc.WriteI64(th.Task, buf+8, 1)
			notEmpty.Signal(th.Task)
			mx.Unlock(th.Task)
		}
	})
	consumer := rt.Create(main.Task, func(th *cables.Thread) {
		var s int64
		for i := 0; i < items; i++ {
			mx.Lock(th.Task)
			for acc.ReadI64(th.Task, buf+8) == 0 {
				notEmpty.Wait(th, mx)
			}
			s += acc.ReadI64(th.Task, buf)
			acc.WriteI64(th.Task, buf+8, 0)
			notFull.Signal(th.Task)
			mx.Unlock(th.Task)
		}
		sum <- s
	})
	rt.Join(main.Task, producer)
	rt.Join(main.Task, consumer)
	if got, want := <-sum, int64(items*(items+1)/2); got != want {
		t.Errorf("consumed sum: got %d want %d", got, want)
	}
}

// TestCancelUnblocksCondWait cancels a thread parked in a condition wait.
func TestCancelUnblocksCondWait(t *testing.T) {
	rt := newRT(2)
	main := rt.Main()
	mx := rt.NewMutex(main.Task)
	cond := rt.NewCond(main.Task)
	started := make(chan struct{})
	victim := rt.Create(main.Task, func(th *cables.Thread) {
		mx.Lock(th.Task)
		close(started)
		cond.Wait(th, mx) // never signaled
		t.Error("wait returned without cancellation")
	})
	<-started
	rt.Cancel(main.Task, victim)
	rt.Join(main.Task, victim)
}

// TestPthreadBarrierAndCentralBarrier checks both barrier flavors agree on
// semantics while the central (mutex+cond) one costs orders of magnitude
// more — the Table 4 comparison.
func TestPthreadBarrierAndCentralBarrier(t *testing.T) {
	rt := newRT(4)
	main := rt.Main()
	const parties = 8

	central, err := rt.NewCentralBarrier(main.Task, parties)
	if err != nil {
		t.Fatalf("central barrier: %v", err)
	}
	var mu sync.Mutex
	var nativeCost, centralCost sim.Time
	var ths []*cables.Thread
	for i := 0; i < parties; i++ {
		ths = append(ths, rt.Create(main.Task, func(th *cables.Thread) {
			// Align clocks first: creation is sequential (node attaches),
			// so threads start far apart in virtual time.
			rt.Barrier(th.Task, "align", parties)
			t0 := th.Task.Now()
			rt.Barrier(th.Task, "native", parties)
			t1 := th.Task.Now()
			central.Wait(th)
			t2 := th.Task.Now()
			mu.Lock()
			if t1-t0 > nativeCost {
				nativeCost = t1 - t0
			}
			if t2-t1 > centralCost {
				centralCost = t2 - t1
			}
			mu.Unlock()
		}))
	}
	for _, th := range ths {
		rt.Join(main.Task, th)
	}
	if centralCost < 10*nativeCost {
		t.Errorf("central barrier (%v) should be far costlier than native (%v)",
			centralCost, nativeCost)
	}
}

// TestMapUnitMisplacement drives the Figure 6 metric: with 64 KB map units,
// pages first touched by different nodes inside one unit get misplaced.
func TestMapUnitMisplacement(t *testing.T) {
	rt := cables.New(cables.Config{
		MaxNodes:       2,
		ProcsPerNode:   2,
		ThreadsPerNode: 1, // force the worker onto node 1
		ArenaBytes:     64 << 20,
	})
	rt.Start()
	main := rt.Main()
	acc := rt.Acc()
	// One 64 KB unit = 16 pages.  Thread on node 1 touches odd pages after
	// node 0's main touches page 0 (claiming the whole unit).
	a, err := rt.Mem().Malloc(main.Task, 64<<10)
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	acc.WriteI64(main.Task, a, 1) // claims the unit for node 0

	other := rt.Create(main.Task, func(th *cables.Thread) {
		for p := 1; p < 16; p++ {
			acc.WriteI64(th.Task, a+memsys.Addr(p*memsys.PageSize), int64(p))
		}
	})
	rt.Join(main.Task, other)

	mis, total := rt.Protocol().Space().MisplacedPages()
	if total < 16 {
		t.Fatalf("touched pages: got %d want >= 16", total)
	}
	if mis != 15 {
		t.Errorf("misplaced pages: got %d want 15 (unit claimed by node 0, 15 pages touched by node 1)", mis)
	}
}
