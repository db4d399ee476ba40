package cables_test

import (
	"testing"

	cables "cables/internal/core"
	"cables/internal/fault"
	"cables/internal/memsys"
	"cables/internal/sim"
	"cables/internal/stats"
)

func newFaultRT(maxNodes int, plan string, seed uint64) *cables.Runtime {
	rt := cables.New(cables.Config{
		MaxNodes:       maxNodes,
		ProcsPerNode:   2,
		ThreadsPerNode: 1, // force workers onto fresh nodes
		ArenaBytes:     64 << 20,
		Fault:          fault.New(fault.MustParsePlan(plan), seed),
	})
	rt.Start()
	return rt
}

// fnvNode mirrors genima's barrier-manager placement hash so the test can
// pick a barrier name managed on a specific node.
func fnvNode(name string, nodes int) int {
	h := uint64(14695981039346656037)
	for _, c := range []byte(name) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return int(h % uint64(nodes))
}

// TestDetachRehomesPagesLocksAndBarriers is the §2.2-style decommission
// scenario: a worker on node 1 first-touches pages, holds a lock and leaves;
// the fault plan then detaches node 1.  Every piece of protocol state homed
// there must re-home on demand — with the data intact — and no new thread
// may land on the dead node.
func TestDetachRehomesPagesLocksAndBarriers(t *testing.T) {
	rt := newFaultRT(2, "detach:node=1,at=5s", 1)
	main := rt.Main()
	acc := rt.Acc()
	ctr := rt.Cluster().Ctr

	a, err := rt.Mem().Malloc(main.Task, 64<<10)
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	mx := rt.NewMutex(main.Task)

	// The worker lands on node 1 (ThreadsPerNode=1 fills node 0 with main),
	// first-touches all 16 pages of the unit, and last-holds the lock.  Node
	// attach costs ~3.69s of virtual time, so all of this happens before the
	// detach instant at 5s.
	worker := rt.Create(main.Task, func(th *cables.Thread) {
		if th.Task.NodeID != 1 {
			t.Errorf("worker placed on node %d, want 1", th.Task.NodeID)
		}
		for p := 0; p < 16; p++ {
			acc.WriteI64(th.Task, a+memsys.Addr(p*memsys.PageSize), int64(100+p))
		}
		mx.Lock(th.Task)
		mx.Unlock(th.Task)
	})
	rt.Join(main.Task, worker)

	sp := rt.Protocol().Space()
	if home := sp.Home(sp.PageOf(a)); home != 1 {
		t.Fatalf("pages homed on node %d before detach, want 1", home)
	}

	// Cross the detach instant on the main thread's clock.
	if main.Task.Now() >= 5*sim.Second {
		t.Fatalf("main already past the detach instant at %v; test premise broken", main.Task.Now())
	}
	main.Task.Charge(sim.CatCompute, 5*sim.Second-main.Task.Now()+sim.Millisecond)

	// Reading the pages from node 0 must adopt them (home moves off the dead
	// node) and the values written on node 1 must survive.
	for p := 0; p < 16; p++ {
		if got := acc.ReadI64(main.Task, a+memsys.Addr(p*memsys.PageSize)); got != int64(100+p) {
			t.Errorf("page %d: got %d, want %d (data lost in re-home)", p, got, 100+p)
		}
	}
	if home := sp.Home(sp.PageOf(a)); home != 0 {
		t.Errorf("pages still homed on detached node (home=%d)", home)
	}
	if got := ctr.Load(stats.EvPageRehomes); got == 0 {
		t.Error("no page re-homes counted")
	}

	// The lock was last held on node 1: the next acquire pulls its state over.
	mx.Lock(main.Task)
	mx.Unlock(main.Task)
	if got := ctr.Load(stats.EvLockRehomes); got != 1 {
		t.Errorf("lock re-homes: %d, want 1", got)
	}

	// A barrier whose arrival counter is managed on node 1 re-homes to the
	// master at the next wait.
	name := "b0"
	for i := 0; fnvNode(name, 2) != 1; i++ {
		name = string(rune('a'+i)) + "bar"
	}
	rt.Barrier(main.Task, name, 1)
	if got := ctr.Load(stats.EvBarrierRehomes); got != 1 {
		t.Errorf("barrier re-homes: %d, want 1", got)
	}

	if got := ctr.Load(stats.EvNodeDetaches); got != 1 {
		t.Errorf("node detaches: %d, want 1", got)
	}
	if ctr.Load(stats.EvFaultsInjected) == 0 {
		t.Error("injector saw no injections")
	}

	// New threads must avoid the dead node: with node 1 gone, placement
	// overloads the master instead of re-attaching the detached node.
	late := rt.Create(main.Task, func(th *cables.Thread) {
		if th.Task.NodeID != 0 {
			t.Errorf("post-detach thread on node %d, want 0 (master)", th.Task.NodeID)
		}
	})
	rt.Join(main.Task, late)
	if got := rt.AttachedNodes(); got != 1 {
		t.Errorf("attached nodes after detach: %d, want 1", got)
	}
}

// TestAttachDelayCharged checks that an attach rule stretches exactly the
// attaching thread's clock by the plan's delay, and is counted.
func TestAttachDelayCharged(t *testing.T) {
	base := cables.New(cables.Config{
		MaxNodes: 2, ProcsPerNode: 2, ThreadsPerNode: 1, ArenaBytes: 64 << 20,
	})
	base.Start()
	worker := base.Create(base.Main().Task, func(th *cables.Thread) {})
	base.Join(base.Main().Task, worker)
	baseNow := base.Main().Task.Now()

	rt := newFaultRT(2, "attach:node=1,delay=500ms", 1)
	worker = rt.Create(rt.Main().Task, func(th *cables.Thread) {})
	rt.Join(rt.Main().Task, worker)
	if got, want := rt.Main().Task.Now()-baseNow, 500*sim.Millisecond; got != want {
		t.Errorf("attach delay stretched the run by %v, want exactly %v", got, want)
	}
	if rt.Cluster().Ctr.Load(stats.EvAttachDelays) != 1 {
		t.Error("attach delay not counted")
	}
	if got := rt.Cluster().Ctr.Load(stats.EvFaultsInjected); got != 1 {
		t.Errorf("faultsInjected: %d, want 1", got)
	}
}

// TestHomePlacementAvoidsDetachedNode checks first-touch placement: a unit
// first touched after the owner-to-be has detached homes on the master.
func TestHomePlacementAvoidsDetachedNode(t *testing.T) {
	rt := newFaultRT(2, "detach:node=1,at=4s", 1)
	main := rt.Main()
	acc := rt.Acc()
	a, err := rt.Mem().Malloc(main.Task, 128<<10) // two map units
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	// Worker attaches node 1 (~3.69s) then idles past the detach instant and
	// only then first-touches its unit: placement must skip its own dead node.
	worker := rt.Create(main.Task, func(th *cables.Thread) {
		th.Task.Charge(sim.CatCompute, 4*sim.Second)
		acc.WriteI64(th.Task, a+64<<10, 7)
	})
	rt.Join(main.Task, worker)
	sp := rt.Protocol().Space()
	if home := sp.Home(sp.PageOf(a + 64<<10)); home != 0 {
		t.Errorf("first touch on a detached node homed the unit on node %d, want master", home)
	}
	if got := acc.ReadI64(main.Task, a+64<<10); got != 7 {
		t.Errorf("value: %d, want 7", got)
	}
}
