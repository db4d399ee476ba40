package fft

import (
	"math"
	"math/cmplx"
	"runtime"
	"testing"

	"cables/internal/m4"
)

// TestFFT1DAgainstNaiveDFT validates the kernel against a direct O(n^2)
// DFT.
func TestFFT1DAgainstNaiveDFT(t *testing.T) {
	const n = 64
	in := make([]complex128, n)
	v := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		re, im := math.Sin(float64(i)), math.Cos(float64(3*i))
		in[i] = complex(re, im)
		v[2*i], v[2*i+1] = re, im
	}
	FFT1D(v)
	for k := 0; k < n; k++ {
		var want complex128
		for j := 0; j < n; j++ {
			want += in[j] * cmplx.Exp(complex(0, -2*math.Pi*float64(k*j)/float64(n)))
		}
		got := complex(v[2*k], v[2*k+1])
		if cmplx.Abs(got-want) > 1e-9*float64(n) {
			t.Fatalf("bin %d: got %v want %v", k, got, want)
		}
	}
}

// TestParsevalEnergy: FFT preserves signal energy (Parseval's theorem).
func TestParsevalEnergy(t *testing.T) {
	const n = 256
	v := make([]float64, 2*n)
	energyIn := 0.0
	for i := 0; i < n; i++ {
		v[2*i] = math.Sin(float64(7 * i))
		energyIn += v[2*i] * v[2*i]
	}
	FFT1D(v)
	energyOut := 0.0
	for i := 0; i < n; i++ {
		energyOut += v[2*i]*v[2*i] + v[2*i+1]*v[2*i+1]
	}
	if math.Abs(energyOut/float64(n)-energyIn) > 1e-6*energyIn {
		t.Errorf("Parseval violated: in=%g out/n=%g", energyIn, energyOut/float64(n))
	}
}

// TestRunChecksumStableAcrossProcs: the parallel FFT computes the same
// result at any processor count.
func TestRunChecksumStableAcrossProcs(t *testing.T) {
	var base float64
	for _, procs := range []int{1, 2, 8} {
		rt := m4.New(m4.Config{Procs: procs, ProcsPerNode: 2, ArenaBytes: 32 << 20})
		res := Run(rt, Config{M: 10})
		if procs == 1 {
			base = res.Checksum
			continue
		}
		if rel := math.Abs(res.Checksum-base) / base; rel > 1e-9 {
			t.Errorf("p=%d checksum drift: %g vs %g", procs, res.Checksum, base)
		}
	}
}

func TestOddMIsRounded(t *testing.T) {
	rt := m4.New(m4.Config{Procs: 2, ProcsPerNode: 2, ArenaBytes: 32 << 20})
	res := Run(rt, Config{M: 9}) // becomes 10
	if res.Checksum == 0 {
		t.Error("zero checksum")
	}
}

// TestSincosMatchesSinCos pins the init's and Root's use of math.Sincos to
// the separate Sin and Cos calls they replaced, bit for bit, on every input
// the scales use: init indices below 2^22 (M ≤ 22) and the twiddle angles
// of the SPLASH-2 FFT (M = 12, 18, 22) and the OpenMP FFT (M = 12, 14, 16).
// Sincos is pure Go on every GOARCH, but s390x has assembly Sin and Cos, so
// the reference itself differs there.
func TestSincosMatchesSinCos(t *testing.T) {
	if runtime.GOARCH == "s390x" {
		t.Skip("s390x: Sin and Cos are assembly, Sincos is pure Go")
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for idx := 0; idx < 1<<22; idx++ {
		x := float64(idx)
		if sin, cos := math.Sincos(x); !same(sin, math.Sin(x)) || !same(cos, math.Cos(x)) {
			t.Fatalf("Sincos(%d) = %v, %v; Sin, Cos = %v, %v", idx, sin, cos, math.Sin(x), math.Cos(x))
		}
	}
	for _, m := range []int{12, 14, 16, 18, 22} {
		n, rows := 1<<m, 1<<(m/2)
		for r := 0; r < rows; r++ {
			for c := 0; c < rows; c++ {
				ang := -2 * math.Pi * float64(r) * float64(c) / float64(n)
				if wr, wi := Root(r, c, n); !same(wr, math.Cos(ang)) || !same(wi, math.Sin(ang)) {
					t.Fatalf("M=%d Root(%d, %d) = %v, %v; Cos, Sin = %v, %v",
						m, r, c, wr, wi, math.Cos(ang), math.Sin(ang))
				}
			}
		}
	}
}
