package lu

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cables/internal/m4"
)

// referenceLU factors the same diagonally dominant matrix sequentially
// with plain Doolittle elimination.
func referenceLU(n int) []float64 {
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 1.0 / (1 + float64(i+j))
			if i == j {
				v += float64(n)
			}
			a[i*n+j] = v
		}
	}
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			a[i*n+k] /= a[k*n+k]
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= a[i*n+k] * a[k*n+j]
			}
		}
	}
	return a
}

// TestBlockedLUMatchesReference: the parallel blocked factorization equals
// sequential unblocked elimination (same fill-in, no pivoting).
func TestBlockedLUMatchesReference(t *testing.T) {
	const n, bs = 64, 16
	ref := referenceLU(n)
	want := 0.0
	for _, v := range ref {
		want += math.Abs(v)
	}
	rt := m4.New(m4.Config{Procs: 4, ProcsPerNode: 2, ArenaBytes: 16 << 20})
	res := Run(rt, Config{N: n, B: bs})
	if rel := math.Abs(res.Checksum-want) / want; rel > 1e-9 {
		t.Errorf("blocked LU checksum %g, reference %g (rel %g)", res.Checksum, want, rel)
	}
}

// TestChecksumStableAcrossProcs: same factorization at any width.
func TestChecksumStableAcrossProcs(t *testing.T) {
	var base float64
	for _, procs := range []int{1, 4, 8} {
		rt := m4.New(m4.Config{Procs: procs, ProcsPerNode: 2, ArenaBytes: 16 << 20})
		res := Run(rt, Config{N: 96, B: 16})
		if procs == 1 {
			base = res.Checksum
			continue
		}
		if rel := math.Abs(res.Checksum-base) / base; rel > 1e-9 {
			t.Errorf("p=%d drift: %g vs %g", procs, res.Checksum, base)
		}
	}
}

// TestKernelFactorReconstruction: factorDiag's L and U multiply back to
// the original block.
func TestKernelFactorReconstruction(t *testing.T) {
	const bs = 8
	diag := make([]float64, bs*bs)
	for i := 0; i < bs; i++ {
		for j := 0; j < bs; j++ {
			diag[i*bs+j] = 1 / (1 + float64(i+j))
			if i == j {
				diag[i*bs+j] += bs
			}
		}
	}
	orig := append([]float64(nil), diag...)
	factorDiag(diag, bs)

	// Reconstruct L*U and compare with the original block.
	recon := make([]float64, bs*bs)
	for i := 0; i < bs; i++ {
		for j := 0; j < bs; j++ {
			sum := 0.0
			for k := 0; k <= min(i, j); k++ {
				l := diag[i*bs+k]
				if k == i {
					l = 1
				}
				if k <= j {
					sum += l * diag[k*bs+j]
				}
			}
			recon[i*bs+j] = sum
		}
	}
	for i := range recon {
		if math.Abs(recon[i]-orig[i]) > 1e-9 {
			t.Fatalf("LU reconstruction off at %d: %g vs %g", i, recon[i], orig[i])
		}
	}
}

// The plain triple-loop block kernels, kept as the bit-exact reference for
// the row-sliced ones in lu.go.  They round each product as the kernels do,
// so no GOARCH fuses one side and not the other.

func refFactorDiag(a []float64, bs int) {
	for k := 0; k < bs; k++ {
		for i := k + 1; i < bs; i++ {
			a[i*bs+k] /= a[k*bs+k]
			for j := k + 1; j < bs; j++ {
				a[i*bs+j] -= float64(a[i*bs+k] * a[k*bs+j])
			}
		}
	}
}

func refLowerSolve(diag, u []float64, bs int) {
	for k := 0; k < bs; k++ {
		for i := k + 1; i < bs; i++ {
			f := diag[i*bs+k]
			for j := 0; j < bs; j++ {
				u[i*bs+j] -= float64(f * u[k*bs+j])
			}
		}
	}
}

func refUpperSolve(diag, l []float64, bs int) {
	for j := 0; j < bs; j++ {
		d := diag[j*bs+j]
		for i := 0; i < bs; i++ {
			l[i*bs+j] /= d
			for k := j + 1; k < bs; k++ {
				l[i*bs+k] -= float64(l[i*bs+j] * diag[j*bs+k])
			}
		}
	}
}

func refMatmulSub(c, a, b []float64, bs int) {
	for i := 0; i < bs; i++ {
		for k := 0; k < bs; k++ {
			f := a[i*bs+k]
			if f == 0 {
				continue
			}
			for j := 0; j < bs; j++ {
				c[i*bs+j] -= float64(f * b[k*bs+j])
			}
		}
	}
}

// randomBlock returns a bs x bs block of normal values with a quarter of
// its entries zero (matmulSub's skip path) and non-zero pivots.
func randomBlock(r *rand.Rand, bs int) []float64 {
	b := make([]float64, bs*bs)
	for i := range b {
		if r.Intn(4) > 0 {
			b[i] = r.NormFloat64()
		}
	}
	for i := 0; i < bs; i++ {
		b[i*bs+i] += float64(bs)
	}
	return b
}

// specials are IEEE edge values: NaNs with distinct payloads (one of them
// signalling, one negative), both infinities, subnormals and -0.
var specials = []float64{
	math.NaN(), math.Float64frombits(0x7ff0_0000_0000_0dad), math.Float64frombits(0xfff8_0000_0000_beef),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -0x1p-1060, 0x1.8p-1023,
	math.Copysign(0, -1),
}

// withSpecials returns a copy of blk with every special value written over
// two random entries.
func withSpecials(r *rand.Rand, blk []float64) []float64 {
	out := slices.Clone(blk)
	for _, v := range specials {
		out[r.Intn(len(out))], out[r.Intn(len(out))] = v, v
	}
	return out
}

// TestKernelsMatchTripleLoops: every block kernel produces the same bits as
// its triple-loop reference, on random blocks with a quarter of their
// entries zero, at block sizes that matmulSub runs through its tail only
// (8, 12-15), through sixteen-column groups only (16, 32), and through both
// (33-39).  matmulSub is also fed blocks holding
// IEEE edge values in A, B and C (a NaN f must not be skipped, a -0 f
// must), and a B one word short, which must panic before C changes.
func TestKernelsMatchTripleLoops(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, bs := range []int{8, 12, 13, 14, 15, 16, 32, 33, 34, 35, 36, 39} {
		diag, x, y := randomBlock(r, bs), randomBlock(r, bs), randomBlock(r, bs)
		sa, sb, sc := withSpecials(r, x), withSpecials(r, y), withSpecials(r, diag)
		// An all-zero row of A leaves its row of C alone, so a -0 there
		// stays -0 only if every f == 0 is skipped (c -= 0*b can give +0).
		a, negZero := slices.Clone(x), slices.Clone(diag)
		for _, i := range []int{0, 1, bs - 1} {
			clear(a[i*bs : i*bs+bs])
			for j := i * bs; j < i*bs+bs; j++ {
				negZero[j] = math.Copysign(0, -1)
			}
		}
		cases := []struct {
			name      string
			got, want func(out []float64)
			in        []float64
		}{
			{"factorDiag", func(o []float64) { factorDiag(o, bs) }, func(o []float64) { refFactorDiag(o, bs) }, diag},
			{"lowerSolve", func(o []float64) { lowerSolve(diag, o, bs) }, func(o []float64) { refLowerSolve(diag, o, bs) }, x},
			{"upperSolve", func(o []float64) { upperSolve(diag, o, bs) }, func(o []float64) { refUpperSolve(diag, o, bs) }, x},
			{"matmulSub", func(o []float64) { matmulSub(o, x, y, bs) }, func(o []float64) { refMatmulSub(o, x, y, bs) }, diag},
			{"matmulSub zero rows", func(o []float64) { matmulSub(o, a, y, bs) }, func(o []float64) { refMatmulSub(o, a, y, bs) }, negZero},
			{"matmulSub specials", func(o []float64) { matmulSub(o, sa, sb, bs) }, func(o []float64) { refMatmulSub(o, sa, sb, bs) }, sc},
		}
		for _, c := range cases {
			got, want := slices.Clone(c.in), slices.Clone(c.in)
			c.got(got)
			c.want(want)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s bs=%d: element %d is %#x, want %#x", c.name, bs, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
		short := slices.Clone(diag)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("matmulSub bs=%d: a B one word short did not panic", bs)
				}
			}()
			matmulSub(short, x, y[:len(y)-1], bs)
		}()
		if !slices.Equal(short, diag) {
			t.Errorf("matmulSub bs=%d: a B one word short changed C before it panicked", bs)
		}
	}
}

// BenchmarkMatmulSub times one interior block update at LU's paper block
// size.
func BenchmarkMatmulSub(b *testing.B) {
	const bs = 32
	r := rand.New(rand.NewSource(1))
	c, x, y := randomBlock(r, bs), randomBlock(r, bs), randomBlock(r, bs)
	for i := 0; i < b.N; i++ {
		matmulSub(c, x, y, bs)
	}
}
