package memsys

import (
	"encoding/binary"
	"fmt"
)

// This file is the optimized data-plane kernel shared by every SVM backend:
// a word-at-a-time page diff that merges each dirty word into the home copy
// under a byte mask, with no branches on which bytes differ.
//
// Invariance contract: DiffPage must return the exact count of bytes where
// data differs from twin — the same number the byte-wise reference produces
// — because that count feeds Costs.DiffTime and the DiffBytes counter, and
// every table/figure of the reproduction depends on it.  Only bytes that
// differ from the twin may change in home: concurrent writers on other
// nodes merge their own diffs into the same home page (multiple-writer
// protocol), so writing an unchanged byte could clobber a committed remote
// update.  The mask holds exactly the differing bytes, so the merge keeps
// every other home byte.  Optimizations here may change host CPU time only,
// never virtual time or merge semantics.

const diffWord = 8 // bytes compared per step

var le = binary.LittleEndian

// nonzeroByteLanes returns the low bit of each byte lane set iff that byte
// of x is nonzero.  Adding 0x7f to a byte's low seven bits carries into its
// high bit iff they are nonzero, and never out of the byte; OR-ing x covers
// a lone high bit.
func nonzeroByteLanes(x uint64) uint64 {
	const low7 = 0x7f7f7f7f7f7f7f7f
	return ((x&low7 + low7) | x) >> 7 & 0x0101010101010101
}

// DiffPage compares data against twin eight bytes at a time, merges the
// differing bytes into home, and returns the number of differing bytes
// (exactly what the byte-wise reference DiffPageRef in diff_test.go
// returns; protocol code must use DiffPage).  All three slices must be at
// least PageSize long.
func DiffPage(data, twin, home []byte) int {
	if len(data) < PageSize || len(twin) < PageSize || len(home) < PageSize {
		panic(fmt.Sprintf("memsys: DiffPage on short pages (%d/%d/%d bytes)",
			len(data), len(twin), len(home)))
	}
	diff := uint64(0)
	// Outer loop strides 32 bytes: four XORed words OR-folded into one
	// clean/dirty test, so unchanged spans (the common case) scan at four
	// words per branch.  A dirty block merges all four words without
	// further branches; a clean word's mask is zero and leaves home as is.
	for w := 0; w < PageSize; w += 4 * diffWord {
		d, t := data[w:w+4*diffWord], twin[w:w+4*diffWord]
		x0 := le.Uint64(d[0:]) ^ le.Uint64(t[0:])
		x1 := le.Uint64(d[8:]) ^ le.Uint64(t[8:])
		x2 := le.Uint64(d[16:]) ^ le.Uint64(t[16:])
		x3 := le.Uint64(d[24:]) ^ le.Uint64(t[24:])
		if x0|x1|x2|x3 == 0 {
			continue
		}
		h := home[w : w+4*diffWord]
		l0, l1, l2, l3 := nonzeroByteLanes(x0), nonzeroByteLanes(x1), nonzeroByteLanes(x2), nonzeroByteLanes(x3)
		mergeWord(h[0:], d[0:], l0)
		mergeWord(h[8:], d[8:], l1)
		mergeWord(h[16:], d[16:], l2)
		mergeWord(h[24:], d[24:], l3)
		// Each byte lane of the sum is at most 4, so the multiply adds the
		// eight lanes into the top byte without carries between them.
		diff += (l0 + l1 + l2 + l3) * 0x0101010101010101 >> 56
	}
	return int(diff)
}

// mergeWord writes into the first word of h the bytes of d's first word
// whose lane is set in lanes: home ^= (home^data) & mask.
func mergeWord(h, d []byte, lanes uint64) {
	hw := le.Uint64(h)
	le.PutUint64(h, hw^(hw^le.Uint64(d))&(lanes*0xff))
}
