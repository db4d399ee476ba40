package memsys

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// This file is the copy-on-write frame store.  A Frame is a refcounted 4 KB
// page image: a fetched page, its twin, the home's primary copy and other
// nodes' clean replicas all alias one frame until the first local write,
// which unshares just that copy (copy into a pooled frame, swap the copy's
// pointer, drop the ref).  A frame with more than one reference is immutable;
// a frame with exactly one reference is private and may be written in place.
//
// Invariance contract: frames change which host array a page's bytes live
// in, never the bytes a simulated access observes or the virtual time it is
// charged.  Twin capture still charges the paper's page-copy cost, fetches
// still charge the wire, and DiffPage still sees byte-exact data/twin pairs
// — every table and figure must be bit-identical with eager copies.
//
// Pool-reuse safety: a frame's array may return to the page pool only when
// no reader can still hold a pointer to it.  Readers hold their node's flush
// lock shared across the byte access, and every release that can free a
// same-node-only frame runs under that node's flush lock held exclusively
// (invalidation, twin retirement) — except unshare, which by construction
// releases a frame with at least one reference remaining.  A frame that was
// ever visible to another node (fetch adoption, interning, migration) sets
// crossNode and is dropped to the garbage collector instead of the pool:
// the GC keeps stale readers safe, and the space's end-of-run Release — when
// the simulation is quiescent — recovers those frames for reuse.
type Frame struct {
	data *[PageSize]byte
	refs atomic.Int32

	// crossNode marks a frame that escaped its creating node: another
	// node's copy, a twin of a migrated page, or the intern table may still
	// be read concurrently with the final release, so the array must not be
	// recycled mid-run (see pool-reuse safety above).
	crossNode atomic.Bool

	// interned marks a frame registered in a Space's dedup table, which
	// holds one reference; the release that leaves only the table's
	// reference evicts and frees it.
	interned atomic.Bool

	// hash is the content hash under which the frame was interned.
	hash uint64

	// zero marks the canonical all-zero frame: permanently shared, never
	// refcounted, never freed.
	zero bool
}

// Data returns the frame's byte image.
func (f *Frame) Data() []byte { return f.data[:] }

// Refs returns the current reference count (the zero frame reports its
// pinned count).  Test hook.
func (f *Frame) Refs() int32 { return f.refs.Load() }

// Exclusive reports whether the frame may be written in place: exactly one
// reference and not the canonical zero frame (whose count is pinned).
func (f *Frame) Exclusive() bool { return !f.zero && f.refs.Load() == 1 }

// Ref takes one more reference and returns f.  The caller must already hold
// a reference (or the intern table's lock for table lookups), so the count
// cannot concurrently reach zero.
func (f *Frame) Ref() *Frame {
	if f.zero {
		return f
	}
	if n := f.refs.Add(1); n == 2 {
		framesShared.Add(1)
	}
	return f
}

// Release drops one reference.  The release that leaves only the intern
// table's reference evicts the frame from its table; the release of the
// last reference frees the frame (pool or GC per crossNode).  sp is the
// owning space, needed only for table eviction; nil is allowed for frames
// that were never interned.
func (f *Frame) Release(sp *Space) {
	if f.zero {
		return
	}
	n := f.refs.Add(-1)
	switch {
	case n < 0:
		panic("memsys: frame released below zero references")
	case n == 1:
		framesShared.Add(-1)
		if f.interned.Load() && sp != nil {
			sp.evictFrame(f)
		}
	case n == 0:
		f.free()
	}
}

// free retires a frame whose last reference just dropped.
func (f *Frame) free() {
	framesResident.Add(-1)
	if f.crossNode.Load() {
		return // stale cross-node readers may remain; let the GC reclaim it
	}
	framePool.Put(f)
}

// framePool recycles frames together with their arrays.  Pooling the Frame
// struct (which owns its *[PageSize]byte for life) keeps the steady-state
// flush cycle — twin ref, unshare, twin release — allocation-free.
var framePool = sync.Pool{
	New: func() any { return &Frame{data: new([PageSize]byte)} },
}

// Global frame gauges (process-wide, host-side observability only; never
// read by simulation code, so they cannot perturb virtual time).
var (
	framesResident     atomic.Int64 // frames live in some space (excludes pool inventory and the zero frame)
	framesResidentPeak atomic.Int64 // high-water mark of framesResident since the last ResetFramesPeak
	framesShared       atomic.Int64 // frames with two or more references
)

// FramesResident returns the number of live frames across all spaces.
func FramesResident() int64 { return framesResident.Load() }

// FramesShared returns the number of frames currently aliased by more than
// one holder (copy, twin, replica or intern table).
func FramesShared() int64 { return framesShared.Load() }

// FramesResidentPeak returns the high-water mark of FramesResident since
// the last ResetFramesPeak.
func FramesResidentPeak() int64 { return framesResidentPeak.Load() }

// ResetFramesPeak rebases the resident high-water mark to the current
// level; TestMemSmokeFullSizeFFT and the benchmark's probe call it before
// a measured run.
func ResetFramesPeak() { framesResidentPeak.Store(framesResident.Load()) }

// newFrame takes a frame from the pool with one reference.  The array holds
// whatever the previous user left (raw); callers that need zeroes use
// newFrameZeroed.  Pool buffers are no longer cleared on return — the fetch
// and unshare paths overwrite the whole page anyway, so clearing twice was
// pure host cost (the "zero-page fast path audit").
func newFrame() *Frame {
	f := framePool.Get().(*Frame)
	f.refs.Store(1)
	f.crossNode.Store(false)
	f.interned.Store(false)
	f.hash = 0
	if n := framesResident.Add(1); n > framesResidentPeak.Load() {
		// Racy max is fine: the peak is a host-side gauge, and a lost
		// update can only under-report by a transient frame or two.
		framesResidentPeak.Store(n)
	}
	return f
}

// newFrameZeroed is newFrame with the array cleared.
func newFrameZeroed() *Frame {
	f := newFrame()
	clear(f.data[:])
	return f
}

// zeroFrame is the canonical all-zero page: every never-written valid copy
// aliases it without allocating, and the dedup table maps the all-zero
// content hash to it so a page written back to zeroes collapses onto it.
var zeroFrame = func() *Frame {
	f := &Frame{data: new([PageSize]byte), zero: true}
	f.refs.Store(2) // pinned above 1 so Exclusive is never true
	f.crossNode.Store(true)
	return f
}()

// ZeroFrame returns the canonical all-zero frame.  Test hook.
func ZeroFrame() *Frame { return zeroFrame }

// frameHashSeed is the process-wide seed for content hashing.  The hash is
// host-only (dedup candidates are confirmed by a full byte compare, and
// dedup never changes simulated bytes or charges), so a random per-process
// seed cannot perturb any virtual-time result.
var frameHashSeed = maphash.MakeSeed()

// hashPage returns the content hash of a page image.
func hashPage(b []byte) uint64 {
	return maphash.Bytes(frameHashSeed, b[:PageSize])
}

// interner is a Space's content-hash dedup table: hash → canonical frame.
// The table holds one reference per entry; entries are evicted when only
// that reference remains.  A frame in the table has at least two references
// and is therefore immutable, so aliasing it is always safe.
type interner struct {
	mu    sync.Mutex
	table map[uint64]*Frame
}

// evictFrame removes f from the space's dedup table if it is still there
// with only the table's reference, dropping that reference (which frees
// the frame).  Called from Release on the 2→1 transition.
func (s *Space) evictFrame(f *Frame) {
	in := &s.intern
	in.mu.Lock()
	if !f.interned.Load() || f.refs.Load() != 1 || in.table[f.hash] != f {
		in.mu.Unlock() // re-acquired through the table, or already evicted
		return
	}
	delete(in.table, f.hash)
	f.interned.Store(false)
	in.mu.Unlock()
	f.Release(s)
}

// DedupFrame interns pc's current frame in the space's content-hash table:
// if an identical-content frame is already canonical, pc's frame is swapped
// for it (a dedup hit); otherwise pc's frame becomes the canonical entry.
// The caller must own pc (hold its Mu) and guarantee no in-flight writer on
// the frame (the fetch path holds the home's flush lock exclusively).
// Returns whether an existing frame was reused.
func (s *Space) DedupFrame(pc *PageCopy) bool {
	f := pc.frame.Load()
	if f == nil || f.zero {
		return false
	}
	if f.interned.Load() {
		return false // already canonical for its content
	}
	h := hashPage(f.data[:])
	in := &s.intern
	in.mu.Lock()
	if g, ok := in.table[h]; ok {
		// Weak hash: confirm the match byte-for-byte before aliasing.
		if g != f && *g.data == *f.data {
			g.Ref()
			in.mu.Unlock()
			pc.frame.Store(g)
			f.Release(s)
			return true
		}
		in.mu.Unlock()
		return false // collision (or self): leave both frames alone
	}
	f.hash = h
	f.interned.Store(true)
	f.crossNode.Store(true) // the table may hand it to any node
	f.Ref()                 // the table's reference
	in.table[h] = f
	in.mu.Unlock()
	return false
}
