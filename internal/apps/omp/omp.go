// Package omp contains the three OpenMP SPLASH-2 programs of the paper's
// §3.3 (FFT, LU, OCEAN), written the way an OpenMP-to-pthreads translator
// (OdinMP) emits them and executed on CableS.  These are SMP-style codes:
// the master thread initializes all shared data, so every page is homed on
// the first node and the cluster pays remote faults for most accesses —
// which is why their speedups (Table 6) are far below the DSM-tuned
// SPLASH-2 versions of Figure 5.
package omp

import (
	"math"

	"cables/internal/apps/appapi"
	"cables/internal/apps/fft"
	"cables/internal/memsys"
	"cables/internal/openmp"
	"cables/internal/sim"
)

const flopCost = 5 * sim.Nanosecond

// FFT runs the OpenMP FFT (m = log2 points, even) on r.
func FFT(r *openmp.Runtime, m int) appapi.Result {
	if m%2 != 0 {
		m++
	}
	n := 1 << m
	rows := 1 << (m / 2)
	main := r.Main()
	acc := r.Acc()
	a := r.Malloc(main, int64(n)*16)
	b := r.Malloc(main, int64(n)*16)
	rowA := func(base memsys.Addr, row int) memsys.Addr {
		return base + memsys.Addr(row*rows*16)
	}

	// The SPLASH-2 OpenMP FFT initializes inside a parallel region, so
	// first touch distributes the rows; the poor cluster speedups come from
	// the all-to-all transposes and barriers, not from initialization.
	r.Warmup()
	r.Parallel(func(o *openmp.OMP) {
		t := o.Task()
		buf := make([]float64, 2*rows)
		o.For(0, rows, func(row int) {
			for c := 0; c < rows; c++ {
				idx := row*rows + c
				buf[2*c] = math.Sin(float64(idx))
				buf[2*c+1] = 0.5 * math.Cos(float64(idx))
			}
			acc.WriteF64s(t, rowA(a, row), buf)
		})
	})

	var sum float64
	pStart := main.Now()
	r.Parallel(func(o *openmp.OMP) { runFFTRegion(r, o, a, b, rows, n, &sum) })
	parallel := main.Now() - pStart
	r.Close()
	return r.Result("OMP-FFT", parallel, sum)
}

func runFFTRegion(r *openmp.Runtime, o *openmp.OMP, a, b memsys.Addr, rows, n int, sum *float64) {
	acc := r.Acc()
	t := o.Task()
	buf := make([]float64, 2*rows)
	rowA := func(base memsys.Addr, row int) memsys.Addr {
		return base + memsys.Addr(row*rows*16)
	}
	// Transpose a -> b.
	o.For(0, rows, func(row int) {
		acc.ReadF64Strided(t, a+memsys.Addr(row*16), rows*16, 2, buf)
		acc.WriteF64s(t, rowA(b, row), buf)
	})
	// Row FFTs + twiddle.
	o.For(0, rows, func(row int) {
		acc.ReadF64s(t, rowA(b, row), buf)
		fft.FFT1D(buf)
		for c := 0; c < rows; c++ {
			wr, wi := fft.Root(row, c, n)
			re, im := buf[2*c], buf[2*c+1]
			buf[2*c] = float64(re*wr) - float64(im*wi)
			buf[2*c+1] = float64(re*wi) + float64(im*wr)
		}
		acc.WriteF64s(t, rowA(b, row), buf)
		t.Compute(sim.Time(rows) * 13 * flopCost)
	})
	// Transpose b -> a, final row FFTs.
	o.For(0, rows, func(row int) {
		acc.ReadF64Strided(t, b+memsys.Addr(row*16), rows*16, 2, buf)
		fft.FFT1D(buf)
		acc.WriteF64s(t, rowA(a, row), buf)
		t.Compute(sim.Time(rows) * 5 * flopCost)
	})
	// Reduction: checksum.
	local := 0.0
	o.ForNowait(0, rows, func(row int) {
		acc.ReadF64s(t, rowA(a, row), buf)
		for _, v := range buf {
			local += math.Abs(v)
		}
	})
	o.Critical("fft.sum", func() { *sum += local })
	o.Barrier()
}

// LU runs the OpenMP LU (unblocked row-cyclic, as the OpenMP SPLASH port
// distributes it) of dimension n on r.
func LU(r *openmp.Runtime, n int) appapi.Result {
	main := r.Main()
	acc := r.Acc()
	mat := r.Malloc(main, int64(n)*int64(n)*8)
	rowA := func(i int) memsys.Addr { return mat + memsys.Addr(i*n*8) }

	row := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 1.0 / (1 + float64(i+j))
			if i == j {
				v += float64(n)
			}
			row[j] = v
		}
		acc.WriteF64s(main, rowA(i), row)
	}

	var sum float64
	r.Warmup()
	pStart := main.Now()
	r.Parallel(func(o *openmp.OMP) {
		t := o.Task()
		piv := make([]float64, n)
		mine := make([]float64, n)
		for k := 0; k < n-1; k++ {
			acc.ReadF64s(t, rowA(k), piv)
			// Row-cyclic elimination of rows below k.
			o.For(k+1, n, func(i int) {
				acc.ReadF64s(t, rowA(i), mine)
				f := mine[k] / piv[k]
				mine[k] = f
				for j := k + 1; j < n; j++ {
					mine[j] -= float64(f * piv[j])
				}
				acc.WriteF64s(t, rowA(i), mine)
				t.Compute(sim.Time(n-k) * 2 * flopCost)
			})
		}
		local := 0.0
		o.ForNowait(0, n, func(i int) {
			acc.ReadF64s(t, rowA(i), mine)
			for _, v := range mine {
				local += math.Abs(v)
			}
		})
		o.Critical("lu.sum", func() { sumAdd(&sum, local) })
		o.Barrier()
	})
	parallel := main.Now() - pStart
	r.Close()
	return r.Result("OMP-LU", parallel, sum)
}

// Ocean runs the OpenMP OCEAN (red-black SOR on master-initialized grids).
func Ocean(r *openmp.Runtime, n, iters int) appapi.Result {
	main := r.Main()
	acc := r.Acc()
	grid := r.Malloc(main, int64(n)*memsys.PageSize)
	rowA := func(i int) memsys.Addr { return grid + memsys.Addr(i)*memsys.PageSize }

	row := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			row[j] = 0.01 * math.Sin(float64(i*n+j))
		}
		acc.WriteF64s(main, rowA(i), row)
	}

	var sum float64
	r.Warmup()
	pStart := main.Now()
	r.Parallel(func(o *openmp.OMP) {
		t := o.Task()
		mid := make([]float64, n)
		local := 0.0
		for it := 0; it < iters; it++ {
			for color := 0; color < 2; color++ {
				o.For(1, n-1, func(i int) {
					acc.ReadF64s(t, rowA(i), mid)
					// Up/down rows may belong to other threads: read only
					// the stable (opposite-color) columns the stencil uses,
					// and write back only the active color.
					for j := 1 + (i+color)%2; j < n-1; j += 2 {
						upV := acc.ReadF64(t, rowA(i-1)+memsys.Addr(j*8))
						downV := acc.ReadF64(t, rowA(i+1)+memsys.Addr(j*8))
						v := float64(0.25 * (upV + downV + mid[j-1] + mid[j+1]))
						local += math.Abs(v - mid[j])
						acc.WriteF64(t, rowA(i)+memsys.Addr(j*8), v)
					}
					t.Compute(sim.Time(n/2) * 6 * flopCost)
				})
			}
		}
		o.Critical("ocean.sum", func() { sumAdd(&sum, local) })
		o.Barrier()
	})
	parallel := main.Now() - pStart
	r.Close()
	return r.Result("OMP-OCEAN", parallel, sum)
}

func sumAdd(dst *float64, v float64) { *dst += v }
