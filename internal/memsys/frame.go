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
// — TestCOWMatchesEagerReference checks the COW store byte for byte
// against an eager-copy reference.
//
// Ownership: a frame belongs to one Space, and so to one cell, whose tasks
// run one at a time in its single scheduler slot; its refcount and flags
// are plain fields.  Only the frame pool, the process-wide gauges and the
// read-only canonical zero frame are shared between cells.
//
// Pool-reuse safety: a frame's array returns to the frame pool when its
// last reference drops, which is safe only if no reader still holds a
// pointer to it.  Refcounts are exact, and an accessor holds a frame
// pointer only between its validity check and its load or store, with no
// safe point in between; so every release (invalidation, twin retirement,
// eviction from the intern table) runs while no accessor holds the frame,
// and unshare by construction releases a frame with at least one reference
// remaining.
type Frame struct {
	data *[PageSize]byte
	refs int32

	// interned marks a frame registered in a Space's dedup table, which
	// holds one reference; the release that leaves only the table's
	// reference evicts and frees it.
	interned bool

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
func (f *Frame) Refs() int32 { return f.refs }

// Exclusive reports whether the frame may be written in place: exactly one
// reference and not the canonical zero frame (whose count is pinned).
func (f *Frame) Exclusive() bool { return !f.zero && f.refs == 1 }

// Ref takes one more reference and returns f.  The caller must already hold
// a reference (or reach f through the intern table, which holds one).
func (f *Frame) Ref() *Frame {
	if f.zero {
		return f
	}
	if f.refs++; f.refs == 2 {
		framesShared.Add(1)
	}
	return f
}

// Release drops one reference.  The release that leaves only the intern
// table's reference evicts the frame from its table; the release of the
// last reference returns the frame to the pool.  sp is the
// owning space, needed only for table eviction; nil is allowed for frames
// that were never interned.
func (f *Frame) Release(sp *Space) {
	if f.zero {
		return
	}
	f.refs--
	switch {
	case f.refs < 0:
		panic("memsys: frame released below zero references")
	case f.refs == 1:
		framesShared.Add(-1)
		if f.interned && sp != nil {
			sp.evictFrame(f)
		}
	case f.refs == 0:
		framesResident.Add(-1)
		framePool.Put(f)
	}
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
	*f = Frame{data: f.data, refs: 1}
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
	// refs is pinned above 1 so Exclusive is never true.
	return &Frame{data: new([PageSize]byte), refs: 2, zero: true}
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

// evictFrame removes f from the space's dedup table, dropping the table's
// reference (which frees the frame).  Called from Release on the 2→1
// transition of an interned frame, whose table entry is f itself.  A frame
// in the table has at least two references and is therefore immutable, so
// aliasing it is always safe.
func (s *Space) evictFrame(f *Frame) {
	delete(s.intern, f.hash)
	f.interned = false
	f.Release(s)
}

// DedupFrame interns pc's current frame in the space's content-hash table:
// if an identical-content frame is already canonical, pc's frame is swapped
// for it (a dedup hit); otherwise pc's frame becomes the canonical entry.
// Returns whether an existing frame was reused.
func (s *Space) DedupFrame(pc *PageCopy) bool {
	f := pc.frame
	if f == nil || f.zero || f.interned {
		return false // nothing to share, or already canonical for its content
	}
	h := hashPage(f.data[:])
	if g, ok := s.intern[h]; ok {
		// Weak hash: confirm the match byte-for-byte before aliasing.
		if g != f && *g.data == *f.data {
			pc.frame = g.Ref()
			f.Release(s)
			return true
		}
		return false // collision (or self): leave both frames alone
	}
	f.hash = h
	f.interned = true
	s.intern[h] = f.Ref() // the table's reference
	return false
}
