// Package fft ports the SPLASH-2 FFT kernel: a six-step 1D FFT over a
// sqrt(n) x sqrt(n) complex matrix with three transposes.  Workers own
// contiguous row blocks (single-writer at page granularity given appropriate
// alignment), so transposes are the all-to-all communication phases.
package fft

import (
	"math"

	"cables/internal/apps/appapi"
	"cables/internal/memsys"
	"cables/internal/sim"
)

// Config sizes the FFT run.
type Config struct {
	// M is log2 of the number of complex points; must be even (paper size:
	// m22; scaled default: m16).
	M int
}

// DefaultConfig returns the scaled default problem size.
func DefaultConfig() Config { return Config{M: 16} }

const flopCost = 5 * sim.Nanosecond // PentiumPro-era per-flop charge

// Run executes FFT on rt and reports the result.
func Run(rt appapi.Runtime, cfg Config) appapi.Result {
	if cfg.M == 0 {
		cfg = DefaultConfig()
	}
	if cfg.M%2 != 0 {
		cfg.M++
	}
	n := 1 << cfg.M
	rows := 1 << (cfg.M / 2) // matrix is rows x rows
	procs := rt.Procs()
	acc := rt.Acc()

	matBytes := int64(n) * 16 // complex128
	a := appapi.Alloc(rt, "fft.A", matBytes)
	b := appapi.Alloc(rt, "fft.B", matBytes)

	var sec appapi.Section
	sums := make([]float64, procs)

	appapi.RunWorkers(rt, procs, func(t *sim.Task, p int) {
		lo, hi := appapi.Share(rows, procs, p)
		rowLen := 2 * rows // float64s per row (re,im interleaved)
		buf := make([]float64, rowLen)

		// Initialization: each worker touches and fills its own row blocks
		// of both matrices — the data placement the tuned application
		// establishes.
		for r := lo; r < hi; r++ {
			for c := 0; c < rows; c++ {
				sin, cos := math.Sincos(float64(r*rows + c))
				buf[2*c], buf[2*c+1] = sin, cos*0.5
			}
			acc.WriteF64s(t, rowAddr(a, r, rows), buf)
			for c := range buf {
				buf[c] = 0
			}
			acc.WriteF64s(t, rowAddr(b, r, rows), buf)
		}
		t.Compute(sim.Time(hi-lo) * sim.Time(rows) * 2 * flopCost)
		rt.Barrier(t, "fft.init", procs)
		sec.Enter(t)

		// Step 1: transpose A -> B (read columns remotely, write own rows).
		transpose(rt, t, acc, a, b, rows, lo, hi)
		rt.Barrier(t, "fft.t1", procs)
		// Step 2: 1D FFT on owned rows of B.
		fftRows(rt, t, acc, b, rows, lo, hi, buf)
		// Step 3: twiddle multiply on owned rows of B.
		twiddle(rt, t, acc, b, n, rows, lo, hi, buf)
		rt.Barrier(t, "fft.t2", procs)
		// Step 4: transpose B -> A.
		transpose(rt, t, acc, b, a, rows, lo, hi)
		rt.Barrier(t, "fft.t3", procs)
		// Step 5: 1D FFT on owned rows of A.
		fftRows(rt, t, acc, a, rows, lo, hi, buf)
		rt.Barrier(t, "fft.t4", procs)
		// Step 6: final transpose A -> B.
		transpose(rt, t, acc, a, b, rows, lo, hi)
		rt.Barrier(t, "fft.done", procs)

		// Checksum over owned rows of the result.
		sum := 0.0
		for r := lo; r < hi; r++ {
			acc.ReadF64s(t, rowAddr(b, r, rows), buf)
			for _, v := range buf {
				sum += math.Abs(v)
			}
		}
		sums[p] = sum
		sec.Leave(t)
	})

	res := appapi.Result{App: "FFT", Checksum: appapi.Sum(sums)}
	appapi.Finalize(rt, &res, &sec)
	return res
}

func rowAddr(base memsys.Addr, r, rows int) memsys.Addr {
	return base + memsys.Addr(r*rows*16)
}

// transpose writes dst rows [lo,hi) from src columns [lo,hi): the owned
// destination rows are local writes, the source columns stride across every
// other worker's rows (the communication phase).
func transpose(rt appapi.Runtime, t *sim.Task, acc *memsys.Accessor,
	src, dst memsys.Addr, rows, lo, hi int) {
	buf := make([]float64, 2*rows)
	for r := lo; r < hi; r++ {
		acc.ReadF64Strided(t, src+memsys.Addr(r*16), rows*16, 2, buf)
		acc.WriteF64s(t, rowAddr(dst, r, rows), buf)
	}
}

// fftRows runs an in-place iterative radix-2 FFT over each owned row.
func fftRows(rt appapi.Runtime, t *sim.Task, acc *memsys.Accessor,
	base memsys.Addr, rows, lo, hi int, buf []float64) {
	for r := lo; r < hi; r++ {
		acc.ReadF64s(t, rowAddr(base, r, rows), buf)
		FFT1D(buf)
		acc.WriteF64s(t, rowAddr(base, r, rows), buf)
		// ~5 flops per butterfly, n/2 log2(n) butterflies.
		nb := rows / 2 * log2(rows)
		t.Compute(sim.Time(nb) * 5 * flopCost)
	}
}

// twiddle multiplies element (r,c) by W_n^(r*c).
func twiddle(rt appapi.Runtime, t *sim.Task, acc *memsys.Accessor,
	base memsys.Addr, n, rows, lo, hi int, buf []float64) {
	for r := lo; r < hi; r++ {
		acc.ReadF64s(t, rowAddr(base, r, rows), buf)
		for c := 0; c < rows; c++ {
			wr, wi := Root(r, c, n)
			re, im := buf[2*c], buf[2*c+1]
			buf[2*c] = float64(re*wr) - float64(im*wi)
			buf[2*c+1] = float64(re*wi) + float64(im*wr)
		}
		acc.WriteF64s(t, rowAddr(base, r, rows), buf)
		t.Compute(sim.Time(rows) * 8 * flopCost)
	}
}

// Root returns W_n^(r*c) as (re, im) for the twiddle step.
func Root(r, c, n int) (wr, wi float64) {
	wi, wr = math.Sincos(-2 * math.Pi * float64(r) * float64(c) / float64(n))
	return wr, wi
}

// FFT1D is an in-place radix-2 complex FFT over interleaved (re,im) pairs;
// the OpenMP variant of the application calls it too.
func FFT1D(v []float64) {
	n := len(v) / 2
	// Bit-reversal permutation.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			v[2*i], v[2*j] = v[2*j], v[2*i]
			v[2*i+1], v[2*j+1] = v[2*j+1], v[2*i+1]
		}
		m := n >> 1
		for m >= 1 && j&m != 0 {
			j ^= m
			m >>= 1
		}
		j |= m
	}
	for s := 1; s < n; s <<= 1 {
		ang := -math.Pi / float64(s)
		wr, wi := math.Cos(ang), math.Sin(ang)
		for k := 0; k < n; k += 2 * s {
			cr, ci := 1.0, 0.0
			for j := 0; j < s; j++ {
				p, q := 2*(k+j), 2*(k+j+s)
				tr := float64(v[q]*cr) - float64(v[q+1]*ci)
				ti := float64(v[q]*ci) + float64(v[q+1]*cr)
				v[q], v[q+1] = v[p]-tr, v[p+1]-ti
				v[p], v[p+1] = v[p]+tr, v[p+1]+ti
				cr, ci = float64(cr*wr)-float64(ci*wi), float64(cr*wi)+float64(ci*wr)
			}
		}
	}
}

func log2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}
