package cables_test

import (
	"testing"
	"testing/quick"

	cables "cables/internal/core"
	"cables/internal/memsys"
	"cables/internal/sim"
	"cables/internal/stats"
)

// TestMallocAlignment: large allocations come back map-unit aligned
// (VirtualAlloc behavior), small ones 64-byte aligned.
func TestMallocAlignment(t *testing.T) {
	rt := newRT(2)
	main := rt.Main().Task
	mem := rt.Mem()
	small, err := mem.Malloc(main, 100)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(small)%64 != 0 {
		t.Errorf("small allocation misaligned: %#x", uint64(small))
	}
	big, err := mem.Malloc(main, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(big)%(64<<10) != 0 {
		t.Errorf("large allocation not unit-aligned: %#x", uint64(big))
	}
}

// TestMallocNonOverlap is a property test over mixed malloc/free sequences.
func TestMallocNonOverlap(t *testing.T) {
	rt := newRT(2)
	main := rt.Main().Task
	mem := rt.Mem()
	type alloc struct {
		a    memsys.Addr
		size int64
	}
	var live []alloc
	f := func(raw uint16, free bool) bool {
		if free && len(live) > 0 {
			if err := mem.Free(main, live[0].a); err != nil {
				return false
			}
			live = live[1:]
			return true
		}
		size := int64(raw%8192) + 1
		a, err := mem.Malloc(main, size)
		if err != nil {
			return true // arena exhausted is a clean failure
		}
		for _, o := range live {
			if a < o.a+memsys.Addr(o.size) && o.a < a+memsys.Addr(size) {
				return false
			}
		}
		live = append(live, alloc{a, size})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMallocErrors(t *testing.T) {
	rt := newRT(2)
	main := rt.Main().Task
	if _, err := rt.Mem().Malloc(main, 0); err == nil {
		t.Error("zero malloc accepted")
	}
	if _, err := rt.Mem().Malloc(main, -8); err == nil {
		t.Error("negative malloc accepted")
	}
	if err := rt.Mem().Free(main, memsys.Addr(0x123)); err == nil {
		t.Error("bogus free accepted")
	}
}

// TestGlobalVarExhaustion: the GLOBAL_DATA region is finite (1 MB).
func TestGlobalVarExhaustion(t *testing.T) {
	rt := cables.New(cables.Config{MaxNodes: 2, ProcsPerNode: 2})
	rt.Start()
	mem := rt.Mem()
	for i := 0; i < 1<<20/64; i++ {
		mem.GlobalVar(64)
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic on exhaustion")
		}
	}()
	mem.GlobalVar(64)
}

// TestRoundRobinPlacement: the ablation policy spreads unit homes over
// nodes regardless of who touches first.
func TestRoundRobinPlacement(t *testing.T) {
	rt := cables.New(cables.Config{
		MaxNodes: 4, ProcsPerNode: 2, Placement: "roundrobin",
		PrestartNodes: 4, ArenaBytes: 64 << 20,
	})
	main := rt.Start()
	acc := rt.Acc()
	a, err := rt.Mem().Malloc(main.Task, 8*64<<10) // 8 map units
	if err != nil {
		t.Fatal(err)
	}
	homes := map[int]bool{}
	sp := rt.Protocol().Space()
	for u := 0; u < 8; u++ {
		addr := a + memsys.Addr(u*64<<10)
		acc.WriteI64(main.Task, addr, 1) // all touched by the main node
		homes[sp.Home(sp.PageOf(addr))] = true
	}
	if len(homes) < 3 {
		t.Errorf("round-robin used only %d nodes: %v", len(homes), homes)
	}
}

// TestFirstTouchPlacement: default policy homes units on the toucher.
func TestFirstTouchPlacement(t *testing.T) {
	rt := newRT(2)
	main := rt.Main()
	acc := rt.Acc()
	a, err := rt.Mem().Malloc(main.Task, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	acc.WriteI64(main.Task, a, 1)
	sp := rt.Protocol().Space()
	if home := sp.Home(sp.PageOf(a)); home != 0 {
		t.Errorf("first-touch home: %d", home)
	}
}

// TestMemManagerMigratePage: the migration mechanism moves the primary copy
// and keeps data intact for subsequent readers.
func TestMemManagerMigratePage(t *testing.T) {
	rt := newRT(2)
	main := rt.Main()
	acc := rt.Acc()
	mem := rt.Mem()
	a, err := mem.Malloc(main.Task, 8)
	if err != nil {
		t.Fatal(err)
	}
	acc.WriteI64(main.Task, a, 321)
	rt.Protocol().Flush(main.Task)
	sp := rt.Protocol().Space()
	pid := sp.PageOf(a)
	src := sp.Home(pid)
	dst := (src + 1) % 2
	mem.MigratePage(main.Task, pid, dst)
	if sp.Home(pid) != dst {
		t.Fatalf("home not moved: %d", sp.Home(pid))
	}

	th := rt.Create(main.Task, func(th *cables.Thread) {
		mxv := rt.NewMutex(th.Task)
		mxv.Lock(th.Task)
		mxv.Unlock(th.Task)
		if got := acc.ReadI64(th.Task, a); got != 321 {
			t.Errorf("post-migration read: %d", got)
		}
	})
	rt.Join(main.Task, th)
}

// TestAdminChargesDependOnNode: ACB requests are cheap on the master node,
// one round trip elsewhere.
func TestAdminChargesDependOnNode(t *testing.T) {
	rt := cables.New(cables.Config{MaxNodes: 2, ProcsPerNode: 2,
		ThreadsPerNode: 1, PrestartNodes: 2})
	main := rt.Start()
	before := main.Task.Now()
	rt.KeyCreate(main.Task)
	masterCost := main.Task.Now() - before

	var remoteCost sim.Time
	th := rt.Create(main.Task, func(th *cables.Thread) {
		b := th.Task.Now()
		rt.KeyCreate(th.Task)
		remoteCost = th.Task.Now() - b
	})
	rt.Join(main.Task, th)
	if masterCost >= remoteCost {
		t.Errorf("master admin %v should be cheaper than remote %v", masterCost, remoteCost)
	}
	if remoteCost != 20*sim.Microsecond {
		t.Errorf("remote admin: %v want 20us", remoteCost)
	}
}

// TestThreadSpecificData exercises pthread keys.
func TestThreadSpecificData(t *testing.T) {
	rt := newRT(2)
	main := rt.Main()
	key := rt.KeyCreate(main.Task)
	key2 := rt.KeyCreate(main.Task)
	if key == key2 {
		t.Fatal("keys collide")
	}
	results := make(chan int, 4)
	var ths []*cables.Thread
	for i := 0; i < 4; i++ {
		i := i
		ths = append(ths, rt.Create(main.Task, func(th *cables.Thread) {
			th.SetSpecific(key, i*10)
			if th.GetSpecific(key2) != nil {
				t.Error("unset key returned value")
			}
			results <- th.GetSpecific(key).(int)
		}))
	}
	for _, th := range ths {
		rt.Join(main.Task, th)
	}
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		seen[<-results] = true
	}
	if len(seen) != 4 {
		t.Errorf("TSD values collided: %v", seen)
	}
}

// TestMigratePageCountsAndFetches: the migration fetch rides the wire plane
// as a migrate op, so each move advances pageMigrations, and the hop that
// pulls the page from a remote home adds exactly one page to bytesFetched.
func TestMigratePageCountsAndFetches(t *testing.T) {
	rt := newRT(2)
	main := rt.Main()
	acc := rt.Acc()
	mem := rt.Mem()
	a, err := mem.Malloc(main.Task, 8)
	if err != nil {
		t.Fatal(err)
	}
	acc.WriteI64(main.Task, a, 7)
	rt.Protocol().Flush(main.Task)
	sp := rt.Protocol().Space()
	pid := sp.PageOf(a)

	ctr := rt.Cluster().Ctr
	before := ctr.Load(stats.EvPageMigrations)
	home := sp.Home(pid)
	// First hop: the old home is the caller's node, so the copy is local.
	// The hop back pulls the page from the remote home — a wire transfer.
	mem.MigratePage(main.Task, pid, (home+1)%2)
	fetched := ctr.Load(stats.EvBytesFetched)
	mem.MigratePage(main.Task, pid, home)

	if got := ctr.Load(stats.EvPageMigrations) - before; got != 2 {
		t.Errorf("pageMigrations advanced by %d, want 2", got)
	}
	if got := ctr.Load(stats.EvBytesFetched) - fetched; got != memsys.PageSize {
		t.Errorf("remote hop fetched %d bytes, want one page (%d)", got, memsys.PageSize)
	}
}
