// Package memsys implements the shared virtual address space: 4 KB pages,
// per-node page copies with twins for diffing, the home directory, and a
// first-toucher record used to quantify page misplacement (paper Figure 6).
//
// There is no mmap/SIGSEGV here: a "page fault" is a state check on the
// access path (see Accessor in access.go).  That is the substitution this
// reproduction makes for VM hardware — the state machine is identical, and
// the fault-handling cost is charged in virtual time.
package memsys

import (
	"fmt"
)

// Page geometry.
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4 KB, as in the paper's testbed
	PageMask  = PageSize - 1
)

// Addr is a global shared virtual address.
type Addr uint64

// PageID indexes a page within the shared arena.
type PageID uint64

// SpaceBase is where the global shared arena starts in the (simulated)
// process virtual address space.
const SpaceBase Addr = 0x4000_0000

// NoHome marks a page whose primary copy has not been placed yet.
const NoHome = int32(-1)

// PageCopy is one node's copy of one shared page.  The zero state is
// Invalid with no storage; storage is bound on first validation.
//
// Storage is a refcounted copy-on-write frame (see frame.go): a fetched
// page, its twin and other nodes' replicas alias one frame, and the first
// local write unshares it.  A copy takes no lock.  A cell's tasks run one
// at a time in its single scheduler slot, and no path between a copy's
// state check and its use holds a safe point (a Park or Compute's
// preemption check), so every transition — validation, write-open, flush,
// invalidation — runs as one uninterrupted section, and no invalidation or
// frame recycling can land between an accessor's validity check and its
// load or store.
type PageCopy struct {
	// words caches frame.data (nil when frame is nil), so an accessor
	// reaches a word without loading the frame; setFrame keeps the two
	// together.
	words *[PageWords]uint64
	frame *Frame

	// twin is the pristine image captured at the first write of the
	// current interval on a non-home node; diffs are computed against it
	// at flush.  It is a reference on the pre-write frame, not a copy.
	twin *Frame

	valid, written bool
}

// setFrame points the copy at f (nil to unbind) without touching refcounts.
func (p *PageCopy) setFrame(f *Frame) {
	p.frame, p.words = f, nil
	if f != nil {
		p.words = f.data
	}
}

// Data returns the current page as bytes (nil before first validation).
func (p *PageCopy) Data() []byte {
	if p.words == nil {
		return nil
	}
	return pageBytes(p.words)
}

// Frame returns the current frame (nil before first validation).  Test hook.
func (p *PageCopy) Frame() *Frame { return p.frame }

// RetireData releases the copy's frame and clears the pointer.
func (p *PageCopy) RetireData() {
	if f := p.frame; f != nil {
		p.setFrame(nil)
		f.Release()
	}
}

// Written reports whether the page is dirty in the current interval.
func (p *PageCopy) Written() bool { return p.written }

// SetWritten marks or clears the dirty flag.
func (p *PageCopy) SetWritten(v bool) { p.written = v }

// Valid reports whether this copy may be read without a fault.
func (p *PageCopy) Valid() bool { return p.valid }

// SetValid marks the copy readable.
func (p *PageCopy) SetValid(v bool) { p.valid = v }

// EnsureFrame binds storage to the copy if it has none and returns the page
// as bytes.  A fresh copy aliases the canonical zero frame — the same all-zero
// content a fresh allocation had, without allocating.  The result is
// read-only; writers go through EnsureExclusive or the accessor's
// unshare-on-write path.
func (p *PageCopy) EnsureFrame() []byte {
	if p.frame == nil {
		p.setFrame(zeroFrame)
	}
	return pageBytes(p.words)
}

// EnsureExclusive makes the copy's frame privately owned and returns it as
// writable bytes, unsharing (or allocating) if needed.  Returns
// whether a shared frame had to be copied — the caller charges nothing
// (unshare is host work; the paper's system wrote in place), but counts it.
func (p *PageCopy) EnsureExclusive() (data []byte, unshared bool) {
	f := p.frame
	switch {
	case f == nil:
		p.setFrame(newFrameZeroed())
	case f.Exclusive():
	case f.zero:
		p.setFrame(newFrameZeroed())
		unshared = true
	default:
		p.setFrame(newFrame())
		*p.words = *f.data
		f.Release() // at least the releaser's alias remains (refs were ≥2)
		unshared = true
	}
	return pageBytes(p.words), unshared
}

// CaptureTwin records the copy's current image as the interval twin — a
// reference on the current frame, not a page copy.  The frame becomes
// shared, so the next write unshares it and the twin keeps the pristine
// image.  The copy must be valid with no twin.
func (p *PageCopy) CaptureTwin() {
	p.twin = p.frame.Ref()
}

// TwinData returns the twin as bytes, or nil if no twin is captured.
func (p *PageCopy) TwinData() []byte {
	if p.twin == nil {
		return nil
	}
	return pageBytes(p.twin.data)
}

// HasTwin reports whether an interval twin is captured.
func (p *PageCopy) HasTwin() bool { return p.twin != nil }

// RetireTwin releases the twin reference (if any).  The caller must not
// retain the twin.
func (p *PageCopy) RetireTwin() {
	if p.twin != nil {
		p.twin.Release()
		p.twin = nil
	}
}

// AdoptFrame points this copy at src's current frame (the fetch path: the
// fetched replica aliases the home's frame instead of copying it).
func (p *PageCopy) AdoptFrame(src *PageCopy) {
	f := src.frame
	if f == nil {
		return
	}
	f.Ref()
	if old := p.frame; old != nil {
		old.Release()
	}
	p.setFrame(f)
}

// Space is the cluster-wide shared address space.
type Space struct {
	size     int64
	numPages int

	// pages[node][pid>>pageChunkShift] groups node's page copies into
	// chunks created on demand.  Two levels keep a fresh space cheap: a
	// flat nodes×numPages array of copies for a 256 MB arena is megabytes
	// of zeroed, GC-scanned pointers per simulation, which dominated the
	// experiment harness's wall-clock cost before chunking.
	pages [][]*pageChunk

	// meta[pid>>pageChunkShift] holds the page's home and first-toucher
	// records in on-demand chunks (same chunking as page copies): home is
	// the node holding the primary copy, toucher the node that first
	// accessed the page at 4 KB granularity — the reference placement
	// against which CableS's map-unit-granularity homes are compared
	// (Figure 6).  Both are stored biased by +1 so the zero value means
	// "unset".  Chunking replaces two flat int32 arrays that cost half a
	// megabyte of zeroed memory per 256 MB space — visible per-op garbage
	// once frames went copy-on-write.
	meta []*metaChunk

	// unshares counts copy-on-write unshares performed by the accessor's
	// write path, reported per node; bound by the protocol (BindUnshares)
	// because memsys itself has no stats sink.
	unshares func(node int)

	next Addr
}

// pageChunk is one on-demand block of page copies (1 MB of arena), held by
// value: a copy costs no allocation of its own and no load of its own.
type pageChunk [pageChunkSize]PageCopy

// pageMeta is one page's home and first-toucher record, each biased by +1.
type pageMeta struct{ home, toucher int32 }

// metaChunk is one on-demand block of per-page home/toucher records.
type metaChunk [pageChunkSize]pageMeta

// A chunk of 256 copies is 8 KB.  Nodes touch pages in runs, and over the
// paper-scale fig5 grid this size keeps the page table smallest: chunks of
// 512 copies take a fifth more, chunks of 128 or fewer more again.
const (
	pageChunkShift = 8
	pageChunkSize  = 1 << pageChunkShift
)

// NewSpace creates a shared arena of size bytes for a cluster of nodes.
func NewSpace(nodes int, size int64) *Space {
	if nodes <= 0 || size <= 0 {
		panic(fmt.Sprintf("memsys: bad space geometry nodes=%d size=%d", nodes, size))
	}
	np := int((size + PageSize - 1) / PageSize)
	nc := (np + pageChunkSize - 1) >> pageChunkShift
	s := &Space{
		size:     int64(np) * PageSize,
		numPages: np,
		pages:    make([][]*pageChunk, nodes),
		meta:     make([]*metaChunk, nc),
		next:     SpaceBase,
	}
	for n := range s.pages {
		s.pages[n] = make([]*pageChunk, nc)
	}
	return s
}

// BindUnshares sets the sink for per-node unshare counts (the protocol's
// stats counters).  Must be set before threads run; nil disables counting.
func (s *Space) BindUnshares(fn func(node int)) { s.unshares = fn }

// Size returns the arena size in bytes.
func (s *Space) Size() int64 { return s.size }

// NumPages returns the number of pages in the arena.
func (s *Space) NumPages() int { return s.numPages }

// Base returns the arena's starting virtual address.
func (s *Space) Base() Addr { return SpaceBase }

// Contains reports whether [a, a+n) lies within the arena.
func (s *Space) Contains(a Addr, n int) bool {
	return a >= SpaceBase && int64(a-SpaceBase)+int64(n) <= s.size
}

// PageOf maps an address to its page.
func (s *Space) PageOf(a Addr) PageID {
	if !s.Contains(a, 1) {
		panic(fmt.Sprintf("memsys: address %#x outside shared arena", uint64(a)))
	}
	return PageID((a - SpaceBase) >> PageShift)
}

// PageAddr returns the first address of page pid.
func (s *Space) PageAddr(pid PageID) Addr { return SpaceBase + Addr(pid)<<PageShift }

// Copy returns node's copy of page pid, creating the descriptor (and its
// chunk) on demand.
func (s *Space) Copy(node int, pid PageID) *PageCopy {
	cslot := &s.pages[node][pid>>pageChunkShift]
	if *cslot == nil {
		*cslot = new(pageChunk)
	}
	return &(*cslot)[pid&(pageChunkSize-1)]
}

// metaAt returns pid's home/toucher record, or nil if its chunk was never
// created (every record in it is unset).
func (s *Space) metaAt(pid PageID) *pageMeta {
	ch := s.meta[pid>>pageChunkShift]
	if ch == nil {
		return nil
	}
	return &ch[pid&(pageChunkSize-1)]
}

// metaEnsure returns pid's home/toucher record, creating its chunk on demand.
func (s *Space) metaEnsure(pid PageID) *pageMeta {
	cslot := &s.meta[pid>>pageChunkShift]
	if *cslot == nil {
		*cslot = new(metaChunk)
	}
	return &(*cslot)[pid&(pageChunkSize-1)]
}

// Home returns the page's home node, or NoHome as an int (-1).
func (s *Space) Home(pid PageID) int {
	if m := s.metaAt(pid); m != nil {
		return int(m.home) - 1
	}
	return -1
}

// SetHome forcibly places the primary copy of pid on node (static placement
// in the base system; migration in CableS).
func (s *Space) SetHome(pid PageID, node int) {
	s.metaEnsure(pid).home = int32(node) + 1
}

// TryFirstTouch sets node as home if the page is unplaced, returning the
// page's home after the operation and whether this call placed it.
func (s *Space) TryFirstTouch(pid PageID, node int) (home int, placed bool) {
	m := s.metaEnsure(pid)
	if m.home == 0 {
		m.home = int32(node) + 1
		return node, true
	}
	return int(m.home) - 1, false
}

// RecordToucher records node as the page's 4 KB-granularity first toucher.
func (s *Space) RecordToucher(pid PageID, node int) {
	if m := s.metaEnsure(pid); m.toucher == 0 {
		m.toucher = int32(node) + 1
	}
}

// Toucher returns the 4 KB-granularity first toucher, or -1.
func (s *Space) Toucher(pid PageID) int {
	if m := s.metaAt(pid); m != nil {
		return int(m.toucher) - 1
	}
	return -1
}

// AllocSegment carves size bytes out of the arena, aligned to align (which
// must be a power of two; 0 means 64).  It returns the segment start.
func (s *Space) AllocSegment(size int64, align int64) (Addr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("memsys: allocation of %d bytes", size)
	}
	if align == 0 {
		align = 64
	}
	if align&(align-1) != 0 {
		return 0, fmt.Errorf("memsys: alignment %d not a power of two", align)
	}
	start := Addr((int64(s.next) + align - 1) &^ (align - 1))
	if int64(start-SpaceBase)+size > s.size {
		return 0, fmt.Errorf("memsys: shared arena exhausted (%d bytes requested, %d free)",
			size, s.size-int64(s.next-SpaceBase))
	}
	s.next = start + Addr(size)
	return start, nil
}

// MisplacedPages compares each touched page's home against its 4 KB
// first-toucher reference and returns (misplaced, total touched).  This is
// the Figure 6 metric: a page is misplaced when map-unit-granularity home
// binding gave it a different home than per-page first touch would have.
func (s *Space) MisplacedPages() (misplaced, total int) {
	for _, ch := range s.meta {
		if ch == nil {
			continue
		}
		for _, m := range ch {
			if m.toucher == 0 {
				continue
			}
			total++
			if m.home != m.toucher {
				misplaced++
			}
		}
	}
	return misplaced, total
}

// Release tears the space down after a run: every copy's frame and twin
// reference is dropped, returning frames to the frame pool for the next
// run.  The space must not be used afterwards.  Callers skip Release when a run failed: a
// panicked cell can leak blocked worker goroutines that still hold frame
// pointers, and those frames must age out through the GC instead.
func (s *Space) Release() {
	for _, chunks := range s.pages {
		for _, ch := range chunks {
			if ch == nil {
				continue
			}
			for i := range ch {
				pc := &ch[i]
				pc.valid, pc.written = false, false
				pc.RetireTwin()
				pc.RetireData()
			}
		}
	}
}
