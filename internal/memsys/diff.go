package memsys

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
)

// This file is the optimized data-plane kernel shared by every SVM backend:
// a word-at-a-time page diff that applies run-length-encoded dirty runs to
// the home copy, and a sync.Pool of page buffers for twins and fetch copies.
//
// Invariance contract: DiffPage must return the exact count of bytes where
// data differs from twin — the same number the byte-wise reference produces
// — because that count feeds Costs.DiffTime and the DiffBytes counter, and
// every table/figure of the reproduction depends on it.  Only bytes that
// differ from the twin may be written to home: concurrent writers on other
// nodes merge their own diffs into the same home page (multiple-writer
// protocol), so copying an unchanged byte could clobber a committed remote
// update.  Optimizations here may change host CPU time only, never virtual
// time or merge semantics.

const (
	diffWord  = 8                  // bytes compared per step
	oneBytes  = 0x0101010101010101 // low bit of every byte lane
	highBytes = 0x8080808080808080 // high bit of every byte lane
)

// hasZeroByte reports a nonzero value iff some byte of x is zero (the exact
// SWAR test: borrow into a byte's high bit without that bit set in x).
func hasZeroByte(x uint64) uint64 {
	return (x - oneBytes) &^ x & highBytes
}

// nonzeroByteLanes folds each byte of x to its low bit: lane k of the result
// is 1 iff byte k of x is nonzero.  All shifts are masked below byte width,
// so no bits bleed across lane boundaries.
func nonzeroByteLanes(x uint64) uint64 {
	x |= (x >> 4) & 0x0f0f0f0f0f0f0f0f
	x |= (x >> 2) & 0x0303030303030303
	x |= (x >> 1) & oneBytes
	return x & oneBytes
}

// DiffPage compares data against twin eight bytes at a time, copies each
// maximal run of differing bytes into home, and returns the number of
// differing bytes (exactly what the byte-wise reference DiffPageRef in
// diff_test.go returns; protocol code must use DiffPage).  All three slices
// must be at least PageSize long.
func DiffPage(data, twin, home []byte) int {
	if len(data) < PageSize || len(twin) < PageSize || len(home) < PageSize {
		panic(fmt.Sprintf("memsys: DiffPage on short pages (%d/%d/%d bytes)",
			len(data), len(twin), len(home)))
	}
	data, twin, home = data[:PageSize:PageSize], twin[:PageSize:PageSize], home[:PageSize:PageSize]
	diff := 0
	run := -1 // start of the open dirty run, or -1
	// Outer loop strides 32 bytes: four XORed words OR-folded into one
	// clean/dirty test, so unchanged spans (the common case) scan at four
	// words per branch.  Dirty blocks fall through to per-word handling.
	for w := 0; w < PageSize; w += 4 * diffWord {
		x0 := binary.LittleEndian.Uint64(data[w:]) ^ binary.LittleEndian.Uint64(twin[w:])
		x1 := binary.LittleEndian.Uint64(data[w+diffWord:]) ^ binary.LittleEndian.Uint64(twin[w+diffWord:])
		x2 := binary.LittleEndian.Uint64(data[w+2*diffWord:]) ^ binary.LittleEndian.Uint64(twin[w+2*diffWord:])
		x3 := binary.LittleEndian.Uint64(data[w+3*diffWord:]) ^ binary.LittleEndian.Uint64(twin[w+3*diffWord:])
		if x0|x1|x2|x3 == 0 {
			if run >= 0 {
				copy(home[run:w], data[run:w])
				run = -1
			}
			continue
		}
		if hasZeroByte(x0)|hasZeroByte(x1)|hasZeroByte(x2)|hasZeroByte(x3) == 0 {
			// Whole block dirty (no XOR byte is zero): extend the run
			// without folding lanes or scanning bytes.
			if run < 0 {
				run = w
			}
			diff += 4 * diffWord
			continue
		}
		for k, x := range [4]uint64{x0, x1, x2, x3} {
			lanes := nonzeroByteLanes(x)
			ww := w + k*diffWord
			if lanes == 0 {
				if run >= 0 {
					copy(home[run:ww], data[run:ww])
					run = -1
				}
				continue
			}
			if lanes == oneBytes { // every byte differs: extend without byte scan
				if run < 0 {
					run = ww
				}
				diff += diffWord
				continue
			}
			diff += bits.OnesCount64(lanes)
			for j := 0; j < diffWord; j++ {
				if lanes&(uint64(1)<<(8*j)) != 0 {
					if run < 0 {
						run = ww + j
					}
				} else if run >= 0 {
					copy(home[run:ww+j], data[run:ww+j])
					run = -1
				}
			}
		}
	}
	if run >= 0 {
		copy(home[run:], data[run:])
	}
	return diff
}

// pagePool recycles standalone PageSize buffers (scratch pages for tests
// and benchmarks; page-copy storage lives in the frame pool, see frame.go).
// It stores *[PageSize]byte rather than slices: a pointer boxes into the
// pool's interface without allocating, where pooling a slice header would
// cost one heap allocation per Put and defeat the point.
//
// Zero-page fast path audit: buffers are no longer cleared on return — a
// returned buffer's contents are arbitrary, and GetPageBuf clears on hand-
// out instead, so callers that overwrite the whole page (fetch fills, copy
// targets) can use GetPageBufRaw and skip the 4 KB clear entirely.
var pagePool = sync.Pool{
	New: func() any { return new([PageSize]byte) },
}

// GetPageBuf returns a zeroed PageSize buffer from the pool.
func GetPageBuf() []byte {
	b := pagePool.Get().(*[PageSize]byte)
	clear(b[:])
	return b[:]
}

// GetPageBufRaw returns a PageSize buffer from the pool with arbitrary
// contents; for callers that overwrite the whole page before reading it.
func GetPageBufRaw() []byte {
	return pagePool.Get().(*[PageSize]byte)[:]
}

// PutPageBuf returns buf to the pool.  The caller must hold the only
// remaining reference; buffers that may still be read concurrently must
// never be returned.  Buffers that did not come from GetPageBuf (wrong
// capacity) are dropped.
func PutPageBuf(buf []byte) {
	if cap(buf) < PageSize {
		return
	}
	pagePool.Put((*[PageSize]byte)(buf[:PageSize]))
}
