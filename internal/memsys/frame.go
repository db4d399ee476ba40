package memsys

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// This file is the copy-on-write frame store.  A Frame is a refcounted page
// of PageWords 8-byte words: a fetched page, its twin, the home's primary
// copy and other nodes' clean replicas all alias one frame until the first
// local write, which unshares just that copy (copy into a pooled frame,
// swap the copy's pointer, drop the ref).  A frame with more than one
// reference is immutable; a frame with exactly one reference is private
// and may be written in place.
//
// Words are held in host byte order, and the accessors load and store them
// whole.  Nothing can observe the order of a word's bytes: the accessors
// admit only aligned 8-byte words, DiffPage counts and merges per byte lane
// (so a word's byte order changes neither its count nor its merge), and
// frames are copied whole.  So the host's byte order changes no output.
// This file is the only one that imports unsafe, for the three views below.
//
// Invariance contract: frames change which host array a page's words live
// in, never the words a simulated access observes or the virtual time it is
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
// pointer to it.  Refcounts are exact, and an accessor holds a frame's
// words only between its validity check and its load or store, with no
// safe point in between; so every release (invalidation, twin retirement)
// runs while no accessor holds the frame, and unshare by construction
// releases a frame with at least one reference remaining.

// PageWords is the number of 8-byte words in a page.
const PageWords = PageSize / 8

// pageBytes is the byte view of a page's words, for DiffPage and tests.
func pageBytes(w *[PageWords]uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(w)), PageSize)
}

// f64Words is the word view of a float64 slice: the same memory, bit for bit.
func f64Words(v []float64) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(v))), len(v))
}

// i64Words is the word view of an int64 slice.
func i64Words(v []int64) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(v))), len(v))
}

// Frame is one refcounted page of words; the file comment above gives its
// sharing rules.
type Frame struct {
	data *[PageWords]uint64
	refs int32

	// zero marks the canonical all-zero frame: permanently shared, never
	// refcounted, never freed.
	zero bool
}

// Exclusive reports whether the frame may be written in place: exactly one
// reference and not the canonical zero frame (whose count is pinned).
func (f *Frame) Exclusive() bool { return !f.zero && f.refs == 1 }

// Ref takes one more reference and returns f.  The caller must already hold
// a reference.
func (f *Frame) Ref() *Frame {
	if !f.zero {
		f.refs++
	}
	return f
}

// Release drops one reference; the release of the last reference returns
// the frame to the pool.
func (f *Frame) Release() {
	if f.zero {
		return
	}
	f.refs--
	switch {
	case f.refs < 0:
		panic("memsys: frame released below zero references")
	case f.refs == 0:
		framesResident.Add(-1)
		framePool.Put(f)
	}
}

// framePool recycles frames together with their arrays.  Pooling the Frame
// struct (which owns its *[PageWords]uint64 for life) keeps the steady-state
// flush cycle — twin ref, unshare, twin release — allocation-free.
var framePool = sync.Pool{
	New: func() any { return &Frame{data: new([PageWords]uint64)} },
}

// Global frame gauges (process-wide, host-side observability only; never
// read by simulation code, so they cannot perturb virtual time).
var (
	framesResident     atomic.Int64 // frames live in some space (excludes pool inventory and the zero frame)
	framesResidentPeak atomic.Int64 // high-water mark of framesResident since the last ResetFramesPeak
)

// FramesResident returns the number of live frames across all spaces.
func FramesResident() int64 { return framesResident.Load() }

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
	n := framesResident.Add(1)
	for p := framesResidentPeak.Load(); n > p; p = framesResidentPeak.Load() {
		if framesResidentPeak.CompareAndSwap(p, n) {
			break
		}
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
// aliases it without allocating.
var zeroFrame = func() *Frame {
	// refs is pinned above 1 so Exclusive is never true.
	return &Frame{data: new([PageWords]uint64), refs: 2, zero: true}
}()
