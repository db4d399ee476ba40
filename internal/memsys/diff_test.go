package memsys

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// DiffPageRef is the byte-wise reference implementation of DiffPage: the
// semantic oracle for the property tests here and in cow_test.go.
func DiffPageRef(data, twin, home []byte) int {
	diff := 0
	for i := 0; i < PageSize; i++ {
		if data[i] != twin[i] {
			home[i] = data[i]
			diff++
		}
	}
	return diff
}

// refDiff applies the byte-wise reference to a copy of home and returns the
// resulting home plus the diff count.
func refDiff(data, twin, home []byte) ([]byte, int) {
	out := bytes.Clone(home)
	n := DiffPageRef(data, twin, out)
	return out, n
}

// kernelDiff does the same through the optimized kernel.
func kernelDiff(data, twin, home []byte) ([]byte, int) {
	out := bytes.Clone(home)
	n := DiffPage(data, twin, out)
	return out, n
}

// matchesRef reports whether the kernel and the reference agree on both the
// merged home bytes and the diff count.
func matchesRef(data, twin, home []byte) bool {
	wantHome, wantN := refDiff(data, twin, home)
	gotHome, gotN := kernelDiff(data, twin, home)
	return gotN == wantN && bytes.Equal(gotHome, wantHome)
}

// checkAgainstRef asserts the kernel and the reference agree on both the
// merged home bytes and the diff count for one (data, twin, home) triple.
func checkAgainstRef(t *testing.T, data, twin, home []byte, label string) {
	t.Helper()
	wantHome, wantN := refDiff(data, twin, home)
	gotHome, gotN := kernelDiff(data, twin, home)
	if gotN != wantN {
		t.Errorf("%s: diffBytes: kernel %d, reference %d", label, gotN, wantN)
	}
	if !bytes.Equal(gotHome, wantHome) {
		i := 0
		for i < PageSize && gotHome[i] == wantHome[i] {
			i++
		}
		t.Errorf("%s: merged home diverges at byte %d: kernel %#x, reference %#x",
			label, i, gotHome[i], wantHome[i])
	}
}

// fullPage builds a PageSize slice filled by fn(i).
func fullPage(fn func(i int) byte) []byte {
	b := make([]byte, PageSize)
	for i := range b {
		b[i] = fn(i)
	}
	return b
}

// TestDiffPageEdges covers the hand-picked boundary cases: all-equal,
// all-different, single bytes at the page edges, and runs straddling the
// 8-byte words the kernel compares at a time.  The home starts as a third,
// unrelated pattern so any write of an unchanged byte (which would clobber
// a concurrent writer's committed diff) shows up as divergence.
func TestDiffPageEdges(t *testing.T) {
	base := fullPage(func(i int) byte { return byte(i * 7) })
	home := fullPage(func(i int) byte { return byte(200 - i) })

	cases := []struct {
		label string
		dirty []int // byte offsets flipped in data relative to twin
	}{
		{"all-equal", nil},
		{"first-byte", []int{0}},
		{"last-byte", []int{PageSize - 1}},
		{"word-interior", []int{3}},
		{"straddle-word", []int{5, 6, 7, 8, 9, 10, 11}},
		{"straddle-three-words", []int{14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25}},
		{"alternating-in-word", []int{32, 34, 36, 38}},
		{"adjacent-words-gap", []int{40, 41, 42, 43, 44, 45, 46, 47, 49}},
		{"run-to-page-end", []int{PageSize - 3, PageSize - 2, PageSize - 1}},
		{"word-ends-clean-middle-dirty", []int{58, 59, 60, 61}},
	}
	for _, tc := range cases {
		data := bytes.Clone(base)
		for _, off := range tc.dirty {
			data[off] ^= 0xff
		}
		checkAgainstRef(t, data, base, home, tc.label)
	}

	// All-different page.
	data := fullPage(func(i int) byte { return byte(i*7) ^ 0x5a })
	checkAgainstRef(t, data, base, home, "all-different")
	if _, n := kernelDiff(data, base, home); n != PageSize {
		t.Errorf("all-different: diffBytes %d, want %d", n, PageSize)
	}

	// A flipped byte whose new value is zero (zero is not "equal").
	data = bytes.Clone(base)
	data[77] = 0
	if base[77] == 0 {
		t.Fatal("test setup: base[77] must be nonzero")
	}
	checkAgainstRef(t, data, base, home, "dirty-byte-to-zero")
}

// TestNonzeroByteLanes checks the lane fold on every byte value in every
// lane, alone and beside a full neighbour.
func TestNonzeroByteLanes(t *testing.T) {
	for k := 0; k < 8; k++ {
		for v := 0; v < 256; v++ {
			x := uint64(v) << (8 * k)
			want := uint64(0)
			if v != 0 {
				want = 1 << (8 * k)
			}
			if got := nonzeroByteLanes(x); got != want {
				t.Fatalf("lanes(%#016x) = %#016x, want %#016x", x, got, want)
			}
			other := uint64(0xff) << (8 * ((k + 1) % 8))
			if got := nonzeroByteLanes(x | other); got != want|other&0x0101010101010101 {
				t.Fatalf("lanes(%#016x) = %#016x", x|other, got)
			}
		}
	}
}

// TestDiffPageQuick is the property test: random page/twin pairs with
// random dirty geometry (sparse flips, dense runs, word-aligned and
// straddling runs), and in each case also a float page dirty in the
// mantissa only, must produce byte-identical merged homes and identical
// diff counts to the reference.
func TestDiffPageQuick(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		twin := make([]byte, PageSize)
		r.Read(twin)
		data := bytes.Clone(twin)
		home := make([]byte, PageSize)
		r.Read(home)

		// Scatter dirty geometry: point flips plus runs of random length
		// and alignment (frequently straddling 8-byte boundaries).
		for n := r.Intn(30); n > 0; n-- {
			data[r.Intn(PageSize)] ^= byte(1 + r.Intn(255))
		}
		for n := r.Intn(8); n > 0; n-- {
			start := r.Intn(PageSize)
			length := 1 + r.Intn(64)
			for i := start; i < start+length && i < PageSize; i++ {
				data[i] ^= byte(1 + r.Intn(255))
			}
		}
		if r.Intn(4) == 0 { // occasionally a huge dense run
			start := r.Intn(PageSize / 2)
			length := r.Intn(PageSize - start)
			r.Read(data[start : start+length])
		}
		if !matchesRef(data, twin, home) {
			return false
		}

		// Then a float page with the same home, dirty in the mantissa only.
		twin = floatPage(r)
		data = bytes.Clone(twin)
		for n := r.Intn(PageSize / 8); n > 0; n-- {
			perturbMantissa(r, data, r.Intn(PageSize/8))
		}
		return matchesRef(data, twin, home)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestTwinLifecycle checks the frame-based twin contract: capture aliases
// the current frame (a reference, not a copy, so twin and data share one
// backing array until the next write unshares it), retire drops it, and a
// nil retire is idempotent.
func TestTwinLifecycle(t *testing.T) {
	sp := NewSpace(1, 1<<16)
	pc := sp.Copy(0, 0)
	if _, unshared := pc.EnsureExclusive(); unshared {
		t.Fatal("fresh copy reported an unshare")
	}
	pc.Data()[0] = 0x5a
	pc.CaptureTwin()
	if !pc.HasTwin() || &pc.TwinData()[0] != &pc.Data()[0] {
		t.Fatal("captured twin does not alias the current frame")
	}
	if got := pc.TwinData()[0]; got != 0x5a {
		t.Fatalf("twin byte %#x, want 0x5a", got)
	}
	if f := pc.Frame(); f.Exclusive() {
		t.Error("frame still exclusive after twin capture")
	}
	if _, unshared := pc.EnsureExclusive(); !unshared {
		t.Fatal("write on twinned frame did not unshare")
	}
	pc.Data()[0] = 0x77
	if &pc.TwinData()[0] == &pc.Data()[0] {
		t.Error("twin still aliases after unshare")
	}
	if got := pc.TwinData()[0]; got != 0x5a {
		t.Errorf("twin lost the pristine image: %#x", got)
	}
	pc.RetireTwin()
	if pc.HasTwin() {
		t.Error("RetireTwin left the twin set")
	}
	pc.RetireTwin() // idempotent on nil
}

// floatPage fills a page with float64 words of magnitude around 1, the
// shape of LU's and OCEAN's data pages.
func floatPage(r *rand.Rand) []byte {
	b := make([]byte, PageSize)
	for i := 0; i < PageSize; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], math.Float64bits(1+r.Float64()))
	}
	return b
}

// perturbMantissa rewrites the low mantissa bytes of float64 word w in
// data, leaving its sign and exponent bytes unchanged: the dirty shape of
// a float page after an update.
func perturbMantissa(r *rand.Rand, data []byte, w int) {
	v := binary.LittleEndian.Uint64(data[w*8:])
	v ^= uint64(1+r.Int63n(1<<40)) << r.Intn(8)
	binary.LittleEndian.PutUint64(data[w*8:], v)
}

// BenchmarkDiffPage times the kernel on three dirty shapes: an unchanged
// page, 8 scattered dirty words, and a float page whose every word changed
// in the mantissa only.
func BenchmarkDiffPage(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	twin := floatPage(r)
	home := floatPage(r)
	sparse := bytes.Clone(twin)
	for i := 0; i < 8; i++ {
		perturbMantissa(r, sparse, r.Intn(PageSize/8))
	}
	dense := bytes.Clone(twin)
	for w := 0; w < PageSize/8; w++ {
		perturbMantissa(r, dense, w)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{{"clean", bytes.Clone(twin)}, {"sparse", sparse}, {"float-dense", dense}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(PageSize)
			for i := 0; i < b.N; i++ {
				DiffPage(c.data, twin, home)
			}
		})
	}
}
