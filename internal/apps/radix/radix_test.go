package radix

import (
	"math"
	"testing"

	"cables/internal/apps/appapi"
	"cables/internal/m4"
)

// TestSortProducesSortedOutput: the checksum encodes sortedness violations
// as huge penalties; a clean run must match the plain key sum.
func TestSortProducesSortedOutput(t *testing.T) {
	rt := m4.New(m4.Config{Procs: 4, ProcsPerNode: 2, ArenaBytes: 32 << 20})
	res := Run(rt, Config{N: 8 << 10, RadixBits: 8, Passes: 2})
	if res.Checksum >= 1e18 {
		t.Fatalf("sortedness violations detected (checksum %g)", res.Checksum)
	}
	if res.Checksum <= 0 {
		t.Fatal("empty checksum")
	}
}

// TestKeySumPreserved: the multiset of keys survives the permutation
// passes (sum preserved between generation and the sorted array).
func TestKeySumPreserved(t *testing.T) {
	// Regenerate the same keys the workers generate and sum them.
	const n, procs = 8 << 10, 4
	want := 0.0
	for p := 0; p < procs; p++ {
		lo, hi := appapi.Share(n, procs, p)
		rng := newWorkerRNG(p)
		mask := int64(1)<<16 - 1
		for i := lo; i < hi; i++ {
			want += float64(int64(rng.Uint64()) & mask)
		}
	}
	rt := m4.New(m4.Config{Procs: procs, ProcsPerNode: 2, ArenaBytes: 32 << 20})
	res := Run(rt, Config{N: n, RadixBits: 8, Passes: 2})
	if math.Abs(res.Checksum-want) > 0.5 {
		t.Errorf("key sum changed: got %g want %g", res.Checksum, want)
	}
}

// TestFullySortedWithEnoughPasses: keys fit in RadixBits*Passes bits, so
// the final array must be globally sorted; verify directly.
func TestFullySorted(t *testing.T) {
	rt := m4.New(m4.Config{Procs: 8, ProcsPerNode: 2, ArenaBytes: 32 << 20})
	const n = 4 << 10
	res := Run(rt, Config{N: n, RadixBits: 10, Passes: 2})
	if res.Checksum >= 1e18 {
		t.Fatal("not sorted")
	}
}
