// Package lu ports the SPLASH-2 LU kernel: blocked dense LU factorization
// (no pivoting) with contiguous blocks.  Blocks are 2D-scattered over a
// processor grid, so each owner's data is many small blocks interleaved with
// other owners' — under 64 KB map-unit home binding this produces the high
// page-misplacement percentages the paper reports for LU (with little
// performance impact thanks to LU's high computation-to-communication ratio).
package lu

import (
	"math"

	"cables/internal/apps/appapi"
	"cables/internal/memsys"
	"cables/internal/sim"
)

// Config sizes the LU run.
type Config struct {
	// N is the matrix dimension (paper: n4096; scaled default: 256).
	N int
	// B is the block size (SPLASH default 16).
	B int
}

// DefaultConfig returns the scaled default problem size.  Blocks of 32
// keep the computation-to-communication ratio of the paper-scale runs
// (n4096): one block update costs more than fetching its operands.
func DefaultConfig() Config { return Config{N: 512, B: 32} }

const flopCost = 5 * sim.Nanosecond

// Run executes LU on rt and reports the result.
func Run(rt appapi.Runtime, cfg Config) appapi.Result {
	if cfg.N == 0 {
		cfg = DefaultConfig()
	}
	n, bs := cfg.N, cfg.B
	nb := n / bs // blocks per dimension
	procs := rt.Procs()
	acc := rt.Acc()

	// Processor grid pr x pc (as square as possible).
	pr := 1
	for pr*pr < procs {
		pr++
	}
	for procs%pr != 0 {
		pr--
	}
	pc := procs / pr

	// Matrix stored block-contiguous: block (bi,bj) occupies bs*bs doubles.
	mat := appapi.Alloc(rt, "lu.A", int64(n)*int64(n)*8)
	blkAddr := func(bi, bj int) memsys.Addr {
		return mat + memsys.Addr(((bi*nb)+bj)*bs*bs*8)
	}
	owner := func(bi, bj int) int { return (bi%pr)*pc + (bj % pc) }

	var sec appapi.Section
	sums := make([]float64, procs)
	blkFlops := sim.Time(2*bs*bs*bs) * flopCost

	appapi.RunWorkers(rt, procs, func(t *sim.Task, p int) {
		buf := make([]float64, bs*bs)
		l := make([]float64, bs*bs)
		u := make([]float64, bs*bs)

		// Init: owners fill their blocks (diagonally dominant matrix).
		for bi := 0; bi < nb; bi++ {
			for bj := 0; bj < nb; bj++ {
				if owner(bi, bj) != p {
					continue
				}
				for i := 0; i < bs; i++ {
					for j := 0; j < bs; j++ {
						gi, gj := bi*bs+i, bj*bs+j
						v := 1.0 / (1 + float64(gi+gj))
						if gi == gj {
							v += float64(n)
						}
						buf[i*bs+j] = v
					}
				}
				acc.WriteF64s(t, blkAddr(bi, bj), buf)
			}
		}
		rt.Barrier(t, "lu.init", procs)
		sec.Enter(t)

		for k := 0; k < nb; k++ {
			// Factor the diagonal block.
			if owner(k, k) == p {
				acc.ReadF64s(t, blkAddr(k, k), buf)
				factorDiag(buf, bs)
				acc.WriteF64s(t, blkAddr(k, k), buf)
				t.Compute(blkFlops / 3)
			}
			rt.Barrier(t, "lu.diag", procs)
			// Perimeter: update row k and column k blocks.
			acc.ReadF64s(t, blkAddr(k, k), buf)
			for j := k + 1; j < nb; j++ {
				if owner(k, j) == p {
					acc.ReadF64s(t, blkAddr(k, j), u)
					lowerSolve(buf, u, bs)
					acc.WriteF64s(t, blkAddr(k, j), u)
					t.Compute(blkFlops / 2)
				}
				if owner(j, k) == p {
					acc.ReadF64s(t, blkAddr(j, k), l)
					upperSolve(buf, l, bs)
					acc.WriteF64s(t, blkAddr(j, k), l)
					t.Compute(blkFlops / 2)
				}
			}
			rt.Barrier(t, "lu.perim", procs)
			// Interior: A(i,j) -= L(i,k) * U(k,j).
			for i := k + 1; i < nb; i++ {
				for j := k + 1; j < nb; j++ {
					if owner(i, j) != p {
						continue
					}
					acc.ReadF64s(t, blkAddr(i, k), l)
					acc.ReadF64s(t, blkAddr(k, j), u)
					acc.ReadF64s(t, blkAddr(i, j), buf)
					matmulSub(buf, l, u, bs)
					acc.WriteF64s(t, blkAddr(i, j), buf)
					t.Compute(blkFlops)
				}
			}
			rt.Barrier(t, "lu.inner", procs)
		}

		// Checksum over owned blocks of the factored matrix.
		sum := 0.0
		for bi := 0; bi < nb; bi++ {
			for bj := 0; bj < nb; bj++ {
				if owner(bi, bj) != p {
					continue
				}
				acc.ReadF64s(t, blkAddr(bi, bj), buf)
				for _, v := range buf {
					sum += math.Abs(v)
				}
			}
		}
		sums[p] = sum
		sec.Leave(t)
	})

	res := appapi.Result{App: "LU", Checksum: appapi.Sum(sums)}
	appapi.Finalize(rt, &res, &sec)
	return res
}

// The block kernels below slice each row once and range over it, so the
// compiler drops the per-element bounds checks.  Each keeps the loop order
// and the floating-point operations of the plain triple loop, so results
// are bit-identical to it (TestKernelsMatchTripleLoops).  The explicit
// float64(…) rounds each product before its subtraction, so no GOARCH may
// fuse the two into one multiply-add (DESIGN.md §5b).

// factorDiag factors a bs x bs block in place (Doolittle, no pivoting).
func factorDiag(a []float64, bs int) {
	for k := 0; k < bs; k++ {
		ak := a[k*bs : k*bs+bs]
		for i := k + 1; i < bs; i++ {
			ai := a[i*bs : i*bs+bs]
			ai[k] /= ak[k]
			f := ai[k]
			ri := ai[k+1:]
			rk := ak[k+1:][:len(ri)]
			for j := range ri {
				ri[j] -= float64(f * rk[j])
			}
		}
	}
}

// lowerSolve computes U := L^-1 * U for the unit-lower triangle of diag.
func lowerSolve(diag, u []float64, bs int) {
	for k := 0; k < bs; k++ {
		uk := u[k*bs : k*bs+bs]
		for i := k + 1; i < bs; i++ {
			f := diag[i*bs+k]
			ui := u[i*bs : i*bs+bs][:len(uk)]
			for j := range ui {
				ui[j] -= float64(f * uk[j])
			}
		}
	}
}

// upperSolve computes L := L * U^-1 for the upper triangle of diag.
func upperSolve(diag, l []float64, bs int) {
	for j := 0; j < bs; j++ {
		dj := diag[j*bs : j*bs+bs]
		for i := 0; i < bs; i++ {
			li := l[i*bs : i*bs+bs]
			li[j] /= dj[j]
			f := li[j]
			rl := li[j+1:]
			rd := dj[j+1:][:len(rl)]
			for k := range rl {
				rl[k] -= float64(f * rd[k])
			}
		}
	}
}

// matmulSub computes C -= A*B for bs x bs blocks, sixteen columns of a row
// of C at a time through sub16, then the bs%16 tail columns in the triple
// loop's k-then-j order.  Every element still sees c -= f*b in ascending k,
// skipping f == 0, so the result is bit-identical to the triple loop.  The
// tail's loop order also has the compiler multiply b*f, as the triple loop
// and sub16 do, so a product of two NaNs keeps b's payload.  sub16 checks
// no bounds on amd64, so the lengths of A and B are checked here, once,
// before any element changes (a reslice checks only capacity).
func matmulSub(c, a, b []float64, bs int) {
	if len(a) < bs*bs || len(b) < bs*bs {
		panic("lu: matmulSub operand shorter than its block")
	}
	for i := 0; i < bs; i++ {
		ci, ai := c[i*bs:i*bs+bs], a[i*bs:i*bs+bs]
		j := 0
		for ; j+16 <= bs; j += 16 {
			sub16((*[16]float64)(ci[j:]), ai, b[j:], bs)
		}
		if ct := ci[j:]; len(ct) > 0 {
			for k, f := range ai {
				if f != 0 {
					bk := b[k*bs+j:][:len(ct)]
					for n := range ct {
						ct[n] -= float64(f * bk[n])
					}
				}
			}
		}
	}
}
