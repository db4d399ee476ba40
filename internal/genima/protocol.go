// Package genima implements the base shared-virtual-memory protocol the
// paper builds CableS on: GeNIMA, a home-based, page-level protocol with
// release consistency over VMMC direct remote operations.
//
// Pages have a home node holding the primary copy.  Writers on other nodes
// capture a twin at the first write of an interval; at a release (lock
// release or barrier arrival) the node's dirty pages are diffed against
// their twins and the diffs applied to the homes with direct remote writes —
// no remote-processor involvement, exactly the property GeNIMA exploits on
// Myrinet.  Write notices are published through a totally ordered interval
// log; at an acquire a node invalidates every non-home page named by
// intervals it has not yet seen (a conservative variant of lazy release
// consistency — safe, never weaker; see DESIGN.md §5/§7).
//
// When a fault plan detaches a node mid-run (see internal/fault), the
// protocol degrades gracefully instead of failing: pages homed on the dead
// node are adopted by the next node that faults on them, lock state last
// held there is pulled over at the next acquire, and barrier arrival
// counters managed there re-home to the master at the next wait.  Re-homing
// charges virtual time and bumps the EvLockRehomes/EvBarrierRehomes/
// EvPageRehomes counters; data is never lost.
package genima

import (
	"fmt"
	"slices"

	"cables/internal/coherence"
	"cables/internal/memsys"
	"cables/internal/nodeos"
	"cables/internal/profile"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/wire"
)

// Placement decides the home of a page on its first touch.  The base system
// uses per-page first touch (the faulting node); CableS substitutes map-unit
// granularity first touch with directory bookkeeping.
type Placement interface {
	HomeFor(t *sim.Task, pid memsys.PageID) int
}

// FirstTouch is the base system's placement: the faulting node becomes home.
type FirstTouch struct{}

// HomeFor returns the faulting node.
func (FirstTouch) HomeFor(t *sim.Task, _ memsys.PageID) int { return t.MemNode() }

// interval is one flushed write interval: the pages node dirtied.
type interval struct {
	node  int
	pages []memsys.PageID
}

// nodeState is the protocol's per-node bookkeeping.  The dirty set is a
// page-order-sorted-at-flush slice deduplicated by a bitmap (the slice's
// backing array is reused across intervals), replacing a per-interval map
// allocation on the hot flush path.
//
// Protocol state takes no lock.  A cell's tasks run one at a time in its
// single scheduler slot, and the protocol's only safe points are the Parks
// of contended lock acquires and barrier waits, so every fault, flush and
// acquire pass runs as one uninterrupted section.
type nodeState struct {
	dirtyPages []memsys.PageID // unique pages dirtied in the current interval
	dirtyBits  []uint64        // bitmap over arena pages deduplicating dirtyPages

	seen       int64           // absolute log prefix already applied
	invBits    []uint64        // acquire-side dedup scratch
	invScratch []memsys.PageID // acquire-side invalidation list
}

// markDirty registers pid in the node's current interval; reports whether it
// was newly added.
func (ns *nodeState) markDirty(pid memsys.PageID) bool {
	w, m := pid>>6, uint64(1)<<(pid&63)
	if ns.dirtyBits[w]&m != 0 {
		return false
	}
	ns.dirtyBits[w] |= m
	ns.dirtyPages = append(ns.dirtyPages, pid)
	return true
}

// Protocol is one application's SVM protocol instance.
type Protocol struct {
	cl    *nodeos.Cluster
	sp    *memsys.Space
	acc   *memsys.Accessor
	place Placement

	// pol is the pluggable coherence policy (internal/coherence).  The
	// engine owns the SVM mechanism — twins, diffs, notices, the interval
	// log — and consults pol at its two decision points: per outbound diff
	// (merge routing) and per contended lock acquire (delegation).
	// Defaults to the genima policy, which declines both; UseProtocol
	// selects a variant before the run starts.
	pol coherence.Protocol

	// delegated maps the tasks currently executing a delegated critical
	// section to the lock that shipped them (so releasing an unrelated
	// inner lock does not end the delegation).  Touched only on delegated
	// paths, never by the genima fast path.
	delegated map[*sim.Task]int

	log     []interval
	logBase int64 // absolute index of log[0] (prefix truncated by compaction)

	// noCompaction retains the full interval log for the run's lifetime
	// (the pre-compaction behavior): the reference the compaction test
	// compares the compacting implementation against (export_test.go).
	noCompaction bool

	nodes []*nodeState

	locks map[int]*SysLock
	bars  map[string]*Barrier
}

// New creates a protocol instance over the cluster with a fresh shared
// address space of arenaBytes; place decides each page's home on first
// touch.
func New(cl *nodeos.Cluster, arenaBytes int64, place Placement) *Protocol {
	p := &Protocol{
		cl:        cl,
		sp:        memsys.NewSpace(cl.NumNodes(), arenaBytes),
		place:     place,
		pol:       coherence.MustNew(coherence.ProtoGenima),
		delegated: make(map[*sim.Task]int),
		nodes:     make([]*nodeState, cl.NumNodes()),
		locks:     make(map[int]*SysLock),
		bars:      make(map[string]*Barrier),
	}
	words := (p.sp.NumPages() + 63) / 64
	for i := range p.nodes {
		p.nodes[i] = &nodeState{
			dirtyBits: make([]uint64, words),
			invBits:   make([]uint64, words),
		}
	}
	p.acc = memsys.NewAccessor(p.sp, p)
	p.sp.BindUnshares(func(node int) { p.cl.Ctr.Add(node, stats.EvCowUnshares, 1) })
	return p
}

// UseProtocol selects the coherence policy by name (internal/coherence;
// the empty string selects genima).  Must be called before
// any shared accesses; each run gets a fresh policy instance.
func (p *Protocol) UseProtocol(name string) error {
	pol, err := coherence.New(name)
	if err != nil {
		return err
	}
	p.pol = pol
	return nil
}

// Space returns the protocol's shared address space.
func (p *Protocol) Space() *memsys.Space { return p.sp }

// Accessor returns the application-facing memory accessor.
func (p *Protocol) Accessor() *memsys.Accessor { return p.acc }

// Cluster returns the underlying cluster.
func (p *Protocol) Cluster() *nodeos.Cluster { return p.cl }

// homeOf resolves (possibly placing) the home of pid for a fault by t.
func (p *Protocol) homeOf(t *sim.Task, pid memsys.PageID) int {
	p.sp.RecordToucher(pid, t.MemNode())
	if h := p.sp.Home(pid); h >= 0 {
		return h
	}
	want := p.place.HomeFor(t, pid)
	h, _ := p.sp.TryFirstTouch(pid, want)
	return h
}

// validate makes t's node copy of pid readable, fetching from the home when
// the home is remote.  Returns the copy.
func (p *Protocol) validate(t *sim.Task, pid memsys.PageID) *memsys.PageCopy {
	ctr := p.cl.Ctr
	costs := p.cl.Costs
	node := t.MemNode()
	t.OpenSpan(uint8(profile.SpanFault), uint64(pid))
	defer t.CloseSpan()
	ctr.Add(node, stats.EvPageFaults, 1)
	t.Charge(sim.CatLocal, costs.FaultHandler)

	home := p.homeOf(t, pid)
	pc := p.sp.Copy(node, pid)
	if pc.Valid() {
		return pc // a write fault on a readable copy
	}
	if home == node {
		pc.EnsureFrame()
		pc.SetValid(true)
		return pc
	}
	// Remote home: make sure the primary copy exists, then fetch it.  The
	// faulting task holds its cell's only scheduler slot, so no home-node
	// store is mid-flight and the DMA reads a stable page image.
	//
	// A home a fault plan has detached cannot serve faults any longer: the
	// faulting node adopts the page — the fetched image becomes the primary
	// copy, and a synthetic write notice makes every peer drop its stale
	// copy at its next acquire.
	hc := p.sp.Copy(home, pid)
	dead := p.cl.Fault.Detached(home, t.Now())
	if !hc.Valid() {
		hc.EnsureFrame()
		hc.SetValid(true)
	}
	// The fetch aliases the home's frame instead of copying it: the shared
	// frame is a stable snapshot, and the home's next write unshares it
	// (the fetched replica keeps this image — exactly what the eager copy
	// gave it).
	pc.AdoptFrame(hc)
	if dead {
		hc.SetValid(false)
		p.sp.SetHome(pid, node)
	}
	p.cl.Wire.Do(t, wire.Op{Kind: wire.KindFetch, Dst: home, Size: memsys.PageSize, Arg: uint64(pid)})
	if dead {
		// Adopting the page remaps it into this node's home region.
		t.Charge(sim.CatLocalOS, costs.OSMapSegment)
		ctr.Add(node, stats.EvPageRehomes, 1)
		p.cl.Fault.NoteRehome(node)
		p.PublishInvalidate(node, pid)
	}
	ctr.Add(node, stats.EvRemotePageFaults, 1)
	t.MarkSpan(uint8(profile.MarkFill), uint64(pid), uint64(memsys.PageSize))
	pc.SetValid(true)
	return pc
}

// ReadFault implements memsys.FaultHandler.
func (p *Protocol) ReadFault(t *sim.Task, pid memsys.PageID) {
	t.CancelPoint()
	p.validate(t, pid)
}

// WriteFault implements memsys.FaultHandler: validates the page and opens a
// write interval on it (twin capture on non-home nodes).  Validation and
// write-open are one section with no safe point between them, so the copy
// is still valid when the interval opens.
func (p *Protocol) WriteFault(t *sim.Task, pid memsys.PageID) {
	t.CancelPoint()
	pc := p.validate(t, pid)
	if pc.Written() {
		return
	}
	if p.sp.Home(pid) != t.MemNode() {
		// Twin capture is a reference on the current frame, not a page
		// copy — the first store unshares the frame and the twin keeps the
		// pristine image.  The paper's system memcpy'd here, so the virtual
		// page-copy cost is still charged.
		pc.CaptureTwin()
		t.Charge(sim.CatLocal, sim.Time(memsys.PageSize)) // twin copy
	}
	pc.SetWritten(true)
	p.nodes[t.MemNode()].markDirty(pid)
}

// Flush ends the node's current write interval: every dirty page is diffed
// and the diff applied to its home with a direct remote write; the interval
// is published to the log.  Called at releases and barrier arrivals.
func (p *Protocol) Flush(t *sim.Task) { p.flush(t) }

// flush is Flush returning the interval's published page list (the write
// notices).  The delegated-release path uses the list to drop the origin
// node's stale copies of the pages the critical section wrote; the slice
// aliases the interval stored in the log and must not be mutated.
func (p *Protocol) flush(t *sim.Task) []memsys.PageID {
	node := t.MemNode()
	ns := p.nodes[node]

	work := ns.dirtyPages
	if len(work) == 0 {
		return nil
	}
	// The flush holds no safe point, so no write fault can dirty a page of
	// this node before the list is recycled below.
	for _, pid := range work {
		ns.dirtyBits[pid>>6] &^= uint64(1) << (pid & 63)
	}
	slices.Sort(work) // deterministic flush/notice order

	var merge map[int]int // merging policies: home node -> reduction diff bytes
	if p.pol.Merge() {
		merge = make(map[int]int)
	}

	pages := make([]memsys.PageID, 0, len(work))
	for _, pid := range work {
		if p.flushPage(t, node, pid, merge) {
			pages = append(pages, pid)
		}
	}
	if len(merge) > 0 {
		// Reduction targets travel as one batched merge op per home — the
		// commutative protocol's entire effect on the wire schedule.  The
		// diffs themselves were applied to the homes byte-for-byte above,
		// so data and checksums are identical to the baseline.
		homes := make([]int, 0, len(merge))
		for h := range merge {
			homes = append(homes, h)
		}
		slices.Sort(homes) // deterministic issue order
		for _, h := range homes {
			p.cl.Wire.Do(t, wire.Op{Kind: wire.KindCommMerge, Dst: h, Size: merge[h] + 16})
			p.cl.Ctr.Add(node, stats.EvCommMerges, 1)
			t.MarkSpan(uint8(profile.MarkMerge), uint64(h), uint64(merge[h]))
		}
	}

	ns.dirtyPages = work[:0]

	if len(pages) > 0 {
		p.log = append(p.log, interval{node: node, pages: pages})
		p.cl.Ctr.Add(node, stats.EvWriteNotices, int64(len(pages)))
	}
	return pages
}

// flushPage diffs one dirty page to its home.  Returns whether the page was
// actually modified (and so needs a write notice).  A non-nil merge gathers
// the diffs the coherence policy routes to the flush's reduction batch (one
// wire.merge op per home).
func (p *Protocol) flushPage(t *sim.Task, node int, pid memsys.PageID, merge map[int]int) bool {
	pc := p.sp.Copy(node, pid)
	if !pc.Written() {
		return false
	}
	if p.sp.Home(pid) == node {
		// Home writes are already in place; only a notice is needed.
		pc.RetireTwin() // possible only after a migration moved the home here
		pc.SetWritten(false)
		return true
	}
	if !pc.HasTwin() || pc.Data() == nil {
		pc.RetireTwin()
		pc.SetWritten(false)
		return false
	}
	return p.diffToHome(t, node, pid, pc, merge) != 0
}

// diffToHome runs the diff kernel for pc against its twin, merges the dirty
// runs into the home copy, charges the (byte-exact) diff cost, and retires
// the twin to the frame pool.  Both flushPage and forceDiff funnel
// through here — it is the only place a diff is computed.  pc must have
// both data and twin, and the home must be remote.
// The coherence policy is consulted once per diff (MergeDiff); when it
// claims the diff and a merge batch is running, the bytes ride the
// reduction batch instead of a per-page remote write.
func (p *Protocol) diffToHome(t *sim.Task, node int, pid memsys.PageID, pc *memsys.PageCopy, merge map[int]int) int {
	t.OpenSpan(uint8(profile.SpanDiff), uint64(pid))
	home := p.sp.Home(pid)
	hc := p.sp.Copy(home, pid)
	// The home frame may be aliased by fetched replicas; privatize it before
	// merging (replica holders keep the pre-merge snapshot, which is exactly
	// what their eager fetch copy was).
	hd, unshared := hc.EnsureExclusive()
	if unshared {
		p.cl.Ctr.Add(node, stats.EvCowUnshares, 1)
	}
	diffBytes := memsys.DiffPage(pc.Data(), pc.TwinData(), hd)
	hc.SetValid(true)
	pc.RetireTwin()
	pc.SetWritten(false)
	if diffBytes == 0 {
		t.CloseSpan()
		return 0
	}
	t.Charge(sim.CatLocal, p.cl.Costs.DiffTime(diffBytes))
	if p.pol.MergeDiff(node, pid, home, diffBytes) && merge != nil {
		merge[home] += diffBytes
	} else {
		p.cl.Wire.Do(t, wire.Op{Kind: wire.KindWrite, Dst: home, Size: diffBytes + 16, Arg: uint64(pid)})
	}
	p.cl.Ctr.Add(node, stats.EvDiffsSent, 1)
	p.cl.Ctr.Add(node, stats.EvDiffBytes, int64(diffBytes))
	t.CloseSpan()
	return diffBytes
}

// ApplyAcquire brings the node up to date with the interval log: all pages
// written by other nodes since the node's last acquire are invalidated
// (dirty local copies are force-flushed first so no local writes are lost).
// Called after obtaining a lock or leaving a barrier.
func (p *Protocol) ApplyAcquire(t *sim.Task) {
	node := t.MemNode()
	ns := p.nodes[node]
	// ns.seen >= logBase always: compaction truncates only below the
	// minimum seen across nodes, so the unseen suffix is intact.
	pending := p.log[ns.seen-p.logBase:]
	if len(pending) == 0 {
		return
	}

	// The invalidation list is deduplicated through a reusable bitmap and
	// accumulated into a scratch slice kept across acquires, so the pass
	// costs O(unseen pages) with no per-acquire allocation in steady state.
	notices := 0
	invalidate := ns.invScratch[:0]
	for _, iv := range pending {
		if iv.node == node {
			continue
		}
		for _, pid := range iv.pages {
			if p.sp.Home(pid) != node {
				if w, m := pid>>6, uint64(1)<<(pid&63); ns.invBits[w]&m == 0 {
					ns.invBits[w] |= m
					invalidate = append(invalidate, pid)
				}
			}
			notices++
		}
	}
	for _, pid := range invalidate {
		ns.invBits[pid>>6] &^= uint64(1) << (pid & 63)
		p.dropCopy(t, node, pid)
	}
	ns.invScratch = invalidate[:0]
	ns.seen = p.logBase + int64(len(p.log))
	t.Charge(sim.CatLocal, p.cl.Costs.WriteNotice*sim.Time(notices))
	p.maybeCompactLog()
}

// dropCopy invalidates node's copy of pid.  A copy the node dirtied has
// its diff forced out first, so concurrent false sharing cannot lose
// writes.  This task holds the cell's only scheduler slot, so no reader or
// writer is inside this node's copies and the copy's twin and frame
// references can be dropped; if one was the last reference the frame
// returns to the pool and the refetch aliases the home's frame instead of
// allocating.
func (p *Protocol) dropCopy(t *sim.Task, node int, pid memsys.PageID) {
	pc := p.sp.Copy(node, pid)
	if pc.Written() {
		p.forceDiff(t, node, pid, pc)
	}
	if pc.Valid() {
		pc.SetValid(false)
		p.cl.Ctr.Add(node, stats.EvInvalidations, 1)
	}
	pc.RetireTwin()
	pc.RetireData()
}

// forceDiff flushes one dirty page's diff ahead of the node's next release.
func (p *Protocol) forceDiff(t *sim.Task, node int, pid memsys.PageID, pc *memsys.PageCopy) {
	if p.sp.Home(pid) == node || !pc.HasTwin() {
		pc.SetWritten(false)
		return
	}
	p.diffToHome(t, node, pid, pc, nil)
	p.nodes[node].dirtyBits[pid>>6] &^= uint64(1) << (pid & 63)
}

// dropCopies invalidates node's local copies of pages, force-flushing any
// the node's own threads have dirtied first so no writes are lost.  Used
// when a delegated critical section returns to its origin node: the
// origin's pre-section copies of the pages the section wrote at the server
// are stale, and dropping them keeps the returning thread's own writes
// visible to it (pages homed at the origin took the diffs directly and are
// kept).
func (p *Protocol) dropCopies(t *sim.Task, node int, pages []memsys.PageID) {
	for _, pid := range pages {
		if p.sp.Home(pid) != node {
			p.dropCopy(t, node, pid)
		}
	}
}

// logCompactThreshold is how many fully-applied intervals may accumulate
// before the log's prefix is truncated.  Small enough to bound memory on
// lock ping-pong workloads, large enough that compaction (an exclusive-lock
// copy) stays off the per-acquire fast path.
const logCompactThreshold = 256

// maybeCompactLog truncates the interval-log prefix that every node has
// already applied, keeping len(p.log) proportional to the unseen suffix
// instead of total history.
func (p *Protocol) maybeCompactLog() {
	if p.noCompaction {
		return
	}
	min := p.nodes[0].seen
	for _, n := range p.nodes[1:] {
		if n.seen < min {
			min = n.seen
		}
	}
	if k := min - p.logBase; k >= logCompactThreshold {
		p.log = slices.Delete(p.log, 0, int(k))
		p.logBase = min
	}
}

// LogLen returns the number of intervals currently retained in the log —
// after compaction, the unseen suffix plus at most logCompactThreshold
// applied ones.
func (p *Protocol) LogLen() int { return len(p.log) }

// PublishInvalidate appends a synthetic write notice for pid attributed to
// node, so every other node drops its copy at its next acquire.  Used by
// the CableS page-migration mechanism.
func (p *Protocol) PublishInvalidate(node int, pid memsys.PageID) {
	p.log = append(p.log, interval{node: node, pages: []memsys.PageID{pid}})
}

// Alloc carves a shared segment and, in the base system, statically
// registers it with every node's NIC (export on the segment's backing node
// plus an import entry per peer).  This is the registration pattern whose
// resource consumption CableS eliminates (Tables 1 and 2).
func (p *Protocol) Alloc(t *sim.Task, label string, size int64) (memsys.Addr, error) {
	a, err := p.sp.AllocSegment(size, memsys.PageSize)
	if err != nil {
		return 0, err
	}
	n := p.cl.NumNodes()
	for node := 0; node < n; node++ {
		nic := p.cl.VMMC.NIC(node)
		if _, err := nic.Register(label, size, true, false); err != nil {
			return 0, fmt.Errorf("genima: static registration failed: %w", err)
		}
		for peer := 0; peer < n; peer++ {
			if peer == node {
				continue
			}
			if _, err := nic.Register(label+"#import", 0, false, false); err != nil {
				return 0, fmt.Errorf("genima: static registration failed: %w", err)
			}
		}
		if t != nil {
			t.Charge(sim.CatLocalOS, p.cl.Costs.OSMapSegment)
		}
	}
	return a, nil
}
