package cables

import (
	"cables/internal/memsys"
	"cables/internal/profile"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/vmmc"
	"cables/internal/wire"
)

// MemManager implements CableS's dynamic global memory management (§2.1.3):
//
//   - a shared-heap allocator (malloc/free at any time during execution);
//   - first-touch home placement bound at the OS mapping granularity (64 KB
//     map units on WindowsNT) — the source of the paper's misplaced pages;
//   - the global segment directory, kept on the ACB master node, with the
//     owner-detect / claim cost model of Table 4;
//   - double virtual mappings: each node's home pages live in one contiguous
//     pinned protocol region registered as a single (growing) NIC region,
//     so the per-NIC static region count is O(nodes), not O(segments×nodes);
//   - the GLOBAL static-variable region, homed on the first node;
//   - a page migration mechanism (no policy, as in the paper).
//
// MemManager is also the protocol's Placement: page homes are resolved here.
type MemManager struct {
	rt *Runtime
	sp *memsys.Space

	unitShift uint // log2(map unit / page)
	unitHome  []int32
	unitSeen  [][]bool // [node][unit]: directory info cached?

	homeRegion []vmmc.RegionID

	allocs     map[memsys.Addr]int64
	freeList   []freeBlock
	globalNext memsys.Addr
	globalEnd  memsys.Addr

	roundRobin bool
	rrNext     int64
}

type freeBlock struct {
	addr memsys.Addr
	size int64
}

func newMemManager(rt *Runtime) *MemManager {
	return &MemManager{
		rt:         rt,
		allocs:     make(map[memsys.Addr]int64),
		homeRegion: make([]vmmc.RegionID, rt.cfg.MaxNodes),
		roundRobin: rt.cfg.Placement == "roundrobin",
	}
}

// bind attaches the manager to the protocol's address space; called once
// from New after the protocol exists.
func (m *MemManager) bind(sp *memsys.Space) {
	m.sp = sp
	unitPages := m.rt.cl.Costs.MapGranularity / memsys.PageSize
	if unitPages < 1 {
		unitPages = 1
	}
	shift := uint(0)
	for 1<<shift < unitPages {
		shift++
	}
	m.unitShift = shift
	units := (sp.NumPages() + (1 << shift) - 1) >> shift
	m.unitHome = make([]int32, units)
	for i := range m.unitHome {
		m.unitHome[i] = memsys.NoHome
	}
	m.unitSeen = make([][]bool, m.rt.cfg.MaxNodes)
	for n := range m.unitSeen {
		m.unitSeen[n] = make([]bool, units)
	}
}

// UnitOf returns the map unit containing pid.
func (m *MemManager) UnitOf(pid memsys.PageID) int { return int(pid >> m.unitShift) }

// initNode sets up a node's NIC state when it is attached: one pinned,
// growable protocol region for its home pages; static import entries for
// every already-attached peer (and vice versa); and one dynamic registration
// covering the application view of the shared arena, managed on demand by
// the communication layer.
func (m *MemManager) initNode(t *sim.Task, node int) {
	nic := m.rt.cl.VMMC.NIC(node)
	id, err := nic.Register("cables.homepages", 0, true, false)
	if err != nil {
		panic("cables: home-region registration failed: " + err.Error())
	}
	m.homeRegion[node] = id
	if _, err := nic.Register("cables.appmap", m.sp.Size(), false, true); err != nil {
		panic("cables: dynamic app-map registration failed: " + err.Error())
	}
	for peer := 0; peer < m.rt.cfg.MaxNodes; peer++ {
		if peer == node || !m.rt.acb.attached[peer] {
			continue
		}
		_, err1 := nic.Register("cables.import", 0, false, false)
		_, err2 := m.rt.cl.VMMC.NIC(peer).Register("cables.import", 0, false, false)
		if err1 != nil || err2 != nil {
			panic("cables: import registration failed")
		}
	}
	m.rt.cl.Nodes[node].ChargeMapSegment(t)
}

// globalDataBytes is the size of the GLOBAL static-variable region.
const globalDataBytes = 1 << 20

// initGlobalData reserves the GLOBAL static-variable region and homes it on
// the master node (the paper's _declspec(allocate("GLOBAL_DATA")) area).
func (m *MemManager) initGlobalData(t *sim.Task) {
	addr, err := m.sp.AllocSegment(globalDataBytes, int64(m.rt.cl.Costs.MapGranularity))
	if err != nil {
		panic("cables: GLOBAL_DATA reservation failed: " + err.Error())
	}
	m.globalNext = addr
	m.globalEnd = addr + memsys.Addr(globalDataBytes)
	first := m.sp.PageOf(addr)
	last := m.sp.PageOf(addr + memsys.Addr(globalDataBytes) - 1)
	for u := m.UnitOf(first); u <= m.UnitOf(last); u++ {
		m.unitHome[u] = int32(m.rt.acb.masterNode)
	}
	if err := m.growHome(t, m.rt.acb.masterNode, int64(m.rt.cl.Costs.MapGranularity)*int64(m.UnitOf(last)-m.UnitOf(first)+1)); err != nil {
		panic("cables: GLOBAL_DATA pinning failed: " + err.Error())
	}
	m.rt.cl.Nodes[m.rt.acb.masterNode].ChargeMapSegment(t)
}

// GlobalVar carves a static global variable out of the GLOBAL_DATA region
// (what the GLOBAL type quantifier does at link time in the paper).
func (m *MemManager) GlobalVar(size int64) memsys.Addr {
	addr := (m.globalNext + 63) &^ 63
	if addr+memsys.Addr(size) > m.globalEnd {
		panic("cables: GLOBAL_DATA region exhausted")
	}
	m.globalNext = addr + memsys.Addr(size)
	return addr
}

// growHome extends a node's pinned home-pages region by extra bytes on
// behalf of thread t.  Under fault injection the grow rides out transient
// NIC registration-memory exhaustion via VMMC's deregister/re-register
// recovery before the caller falls back to another home.  The master is
// every unit's last resort, so when its grow still fails the plan's window
// is treated as over and one pressure-free grow is made: only genuine
// hardware exhaustion fails it (no fault plan can wedge a run).
func (m *MemManager) growHome(t *sim.Task, node int, extra int64) error {
	err := m.rt.cl.VMMC.GrowRecover(t, node, m.homeRegion[node], extra)
	if err != nil && node == m.rt.acb.masterNode {
		err = m.rt.cl.VMMC.NIC(node).Grow(m.homeRegion[node], extra)
	}
	return err
}

// HomeFor implements genima.Placement: resolve the home of a faulting page
// through the global directory, claiming the page's map unit by first touch
// when unowned.  This is where the 64 KB granularity binds placement.
func (m *MemManager) HomeFor(t *sim.Task, pid memsys.PageID) int {
	unit := m.UnitOf(pid)
	c := m.rt.cl.Costs
	node := t.MemNode()
	master := m.rt.acb.masterNode

	if h := m.unitHome[unit]; h >= 0 {
		m.chargeDetect(t, unit)
		return int(h)
	}

	// This touch claims the unit: segment migration (first time).
	want := int32(node)
	if m.roundRobin {
		want = int32(m.rrNext % int64(m.rt.cfg.MaxNodes))
		m.rrNext++
	}
	// Never place a new home on a node a fault plan has detached: the unit
	// falls through to the master, which can always host it.
	if m.rt.cl.Fault.Detached(int(want), t.Now()) {
		want = int32(master)
	}
	unitBytes := int64(memsys.PageSize) << m.unitShift
	if err := m.rt.cl.VMMC.GrowRecover(t, int(want), m.homeRegion[want], unitBytes); err != nil {
		// Pinned/registered limit on the desired home: fall back to the
		// master node's region (placement degrades, execution survives).
		// The desired home gets recovery only; the master's pressure-free
		// last grow (growHome) is kept for this fallback.
		if err2 := m.growHome(t, master, unitBytes); err2 != nil {
			panic("cables: no node can host home pages: " + err.Error())
		}
		want = int32(master)
	}
	m.unitHome[unit] = want
	if node == master {
		t.Charge(sim.CatLocal, c.SegMigrateLocal)
		t.Charge(sim.CatLocalOS, c.SegMigrateLocalOS)
	} else {
		t.Charge(sim.CatLocal, c.SegMigrateLocal+3*sim.Microsecond)
		t.Charge(sim.CatLocalOS, c.SegMigrateLocalOS-2*sim.Microsecond)
		m.rt.cl.Wire.Do(t, wire.Op{Kind: wire.KindSegMigrate, Dst: master, Arg: uint64(unit)})
	}
	m.unitSeen[node][unit] = true
	m.rt.cl.Ctr.Add(node, stats.EvSegMigrations, 1)
	return int(want)
}

// chargeDetect applies the owner-detect cost model: free when the directory
// entry is cached locally or the caller is the ACB owner, one directory
// fetch otherwise.
func (m *MemManager) chargeDetect(t *sim.Task, unit int) {
	c := m.rt.cl.Costs
	node := t.MemNode()
	t.Charge(sim.CatLocal, c.SegDetectLocal)
	if !m.unitSeen[node][unit] {
		m.unitSeen[node][unit] = true
		if node != m.rt.acb.masterNode {
			m.rt.cl.Wire.Do(t, wire.Op{Kind: wire.KindSegDetect, Dst: m.rt.acb.masterNode, Arg: uint64(unit)})
		}
	}
	m.rt.cl.Ctr.Add(node, stats.EvOwnerDetects, 1)
}

// Malloc allocates global shared memory dynamically (any time, any thread).
func (m *MemManager) Malloc(t *sim.Task, size int64) (memsys.Addr, error) {
	if size <= 0 {
		return 0, errf("cables: malloc of %d bytes", size)
	}
	m.rt.chargeAdmin(t)
	size = (size + 63) &^ 63
	// First-fit over the free list.
	for i, fb := range m.freeList {
		if fb.size >= size {
			m.allocs[fb.addr] = size
			if fb.size == size {
				m.freeList = append(m.freeList[:i], m.freeList[i+1:]...)
			} else {
				m.freeList[i] = freeBlock{addr: fb.addr + memsys.Addr(size), size: fb.size - size}
			}
			m.rt.cl.Ctr.Add(t.NodeID, stats.EvSharedAllocated, size)
			return fb.addr, nil
		}
	}
	// Large allocations come back map-unit aligned, mirroring VirtualAlloc's
	// 64 KB-aligned reservations on WindowsNT.
	align := int64(64)
	if size >= int64(m.rt.cl.Costs.MapGranularity) {
		align = int64(m.rt.cl.Costs.MapGranularity)
	}
	addr, err := m.sp.AllocSegment(size, align)
	if err != nil {
		return 0, err
	}
	m.allocs[addr] = size
	m.rt.cl.Ctr.Add(t.NodeID, stats.EvSharedAllocated, size)
	return addr, nil
}

// Free returns a block to the shared heap (deallocation during execution,
// which the base system's template forbids).
func (m *MemManager) Free(t *sim.Task, addr memsys.Addr) error {
	m.rt.chargeAdmin(t)
	size, ok := m.allocs[addr]
	if !ok {
		return errf("cables: free of unallocated address %#x", uint64(addr))
	}
	delete(m.allocs, addr)
	m.freeList = append(m.freeList, freeBlock{addr: addr, size: size})
	return nil
}

// MigratePage moves the primary copy of pid to dst — the migration
// *mechanism* of §2.1.3 (CableS provides no policy; callers must quiesce
// writers to the page, e.g. migrate between phases at a barrier).
func (m *MemManager) MigratePage(t *sim.Task, pid memsys.PageID, dst int) {
	src := m.sp.Home(pid)
	if src == dst || src < 0 {
		return
	}
	t.OpenSpan(uint8(profile.SpanMigrate), uint64(pid))
	defer t.CloseSpan()
	sc := m.sp.Copy(src, pid)
	dc := m.sp.Copy(dst, pid)
	if sc.Data() != nil {
		// The new home aliases the old home's frame instead of copying it
		// (writers are quiesced per the contract above).
		dc.AdoptFrame(sc)
	} else {
		dc.EnsureFrame()
	}
	dc.SetValid(true)
	sc.SetValid(false)
	m.sp.SetHome(pid, dst)
	// The pull from the old home goes through the wire plane as a migrate
	// op, so the move counts as a pageMigration and opens a wire.migrate
	// span instead of masquerading as a plain fetch.
	m.rt.cl.Wire.Do(t, wire.Op{Kind: wire.KindMigrate, Dst: src, Size: memsys.PageSize, Arg: uint64(pid)})
	m.rt.cl.Nodes[dst].ChargeMapSegment(t)
	m.rt.proto.PublishInvalidate(dst, pid)
}
