// Package ocean ports (a scaled form of) the SPLASH-2 OCEAN application:
// an eddy-current ocean simulation dominated by red-black SOR relaxations
// over many 2D grids.  OCEAN matters to the paper for two reasons: (1) it
// allocates many shared grids, so the base system's static per-segment
// registration exhausts NIC regions at 32 processors while CableS (one
// protocol region per node) keeps running; (2) rows are page-padded and
// partitioned in contiguous row blocks, so placement stays good even at
// 64 KB map-unit granularity (<10% misplaced pages in Figure 6).
package ocean

import (
	"math"

	"cables/internal/apps/appapi"
	"cables/internal/memsys"
	"cables/internal/sim"
)

// Config sizes the OCEAN run.
type Config struct {
	// N is the grid dimension (paper: n514; scaled default: 256).  Rows are
	// padded to a page, as in the SPLASH-2 "contiguous partitions" version.
	N int
	// Iters is the number of red-black SOR sweeps per grid.
	Iters int
	// AuxGrids is the number of additional small shared grids allocated
	// (multigrid levels, forcing terms, ...); OCEAN's segment count is what
	// trips the base system's registration limits.
	AuxGrids int
}

// DefaultConfig returns the scaled default problem size.
func DefaultConfig() Config { return Config{N: 256, Iters: 4, AuxGrids: 42} }

const (
	flopCost = 5 * sim.Nanosecond
	rowBytes = memsys.PageSize // page-padded rows
	mainGrid = 8               // number of full-size grids
)

// Run executes OCEAN on rt.  If the base system cannot register the shared
// segments (the paper's 32-processor failure), the allocation panics with
// an appapi.AllocError, which the harness reports as the cell's failure.
func Run(rt appapi.Runtime, cfg Config) appapi.Result {
	if cfg.N == 0 {
		cfg = DefaultConfig()
	}
	n := cfg.N
	procs := rt.Procs()
	acc := rt.Acc()

	grids := make([]memsys.Addr, mainGrid)
	for g := range grids {
		grids[g] = appapi.Alloc(rt, "ocean.grid", int64(n)*rowBytes)
	}
	for i := 0; i < cfg.AuxGrids; i++ {
		appapi.Alloc(rt, "ocean.aux", rowBytes)
	}

	rowA := func(g memsys.Addr, r int) memsys.Addr { return g + memsys.Addr(r)*rowBytes }

	var sec appapi.Section
	sums := make([]float64, procs)

	appapi.RunWorkers(rt, procs, func(t *sim.Task, p int) {
		lo, hi := appapi.Share(n, procs, p)
		row := make([]float64, n)
		up := make([]float64, n)
		down := make([]float64, n)
		cols := make([]float64, n/2) // one color's columns of a row

		// Init: owners fill their row blocks of every main grid.
		for g, ga := range grids {
			for r := lo; r < hi; r++ {
				for c := 0; c < n; c++ {
					row[c] = math.Sin(float64(g+1)*float64(r*n+c)) * 0.01
				}
				acc.WriteF64s(t, rowA(ga, r), row)
			}
		}
		rt.Barrier(t, "ocean.init", procs)
		sec.Enter(t)

		// Red-black SOR sweeps over the first two grids, with the third as
		// the forcing term — the relaxation structure of OCEAN's solver.
		resid := 0.0
		for it := 0; it < cfg.Iters; it++ {
			for color := 0; color < 2; color++ {
				for gi := 0; gi < 2; gi++ {
					ga := grids[gi]
					// Rows inside the worker's block are read whole; the
					// two boundary rows belong to neighbours and are read
					// only at the stable (opposite-color) columns they
					// contribute to the stencil: columns c0, c0+2, ... < n-1.
					loadRow := func(dst []float64, rr, c0 int) {
						if rr >= lo && rr < hi {
							acc.ReadF64s(t, rowA(ga, rr), dst)
							return
						}
						at := cols[:(n-c0)/2]
						acc.ReadF64Strided(t, rowA(ga, rr)+memsys.Addr(c0*8), 16, 1, at)
						for j, v := range at {
							dst[c0+2*j] = v
						}
					}
					for r := lo; r < hi; r++ {
						if r == 0 || r == n-1 {
							continue
						}
						c0 := 1 + (r+color)%2
						loadRow(up, r-1, c0)
						acc.ReadF64s(t, rowA(ga, r), row)
						loadRow(down, r+1, c0)
						// Only the active color's points are written back:
						// the opposite color is concurrently read by the
						// neighbouring rows' owners (red-black dependence).
						at := cols[:(n-c0)/2]
						for j := range at {
							c := c0 + 2*j
							v := float64(0.25 * (up[c] + down[c] + row[c-1] + row[c+1]))
							resid += math.Abs(v - row[c])
							at[j] = v
						}
						acc.WriteF64Strided(t, rowA(ga, r)+memsys.Addr(c0*8), 16, 1, at)
						t.Compute(sim.Time(n/2) * 6 * flopCost)
					}
				}
				rt.Barrier(t, "ocean.sor", procs)
			}
			// Stream-function updates on two more grids (local sweeps).
			for gi := 4; gi < 6; gi++ {
				ga := grids[gi]
				sa := grids[gi+2]
				for r := lo; r < hi; r++ {
					acc.ReadF64s(t, rowA(ga, r), row)
					acc.ReadF64s(t, rowA(sa, r), up)
					for c := 0; c < n; c++ {
						row[c] += float64(0.5 * up[c])
					}
					acc.WriteF64s(t, rowA(ga, r), row)
					t.Compute(sim.Time(n) * 2 * flopCost)
				}
			}
			rt.Barrier(t, "ocean.step", procs)
		}
		sums[p] = resid
		sec.Leave(t)
	})

	res := appapi.Result{App: "OCEAN", Checksum: appapi.Sum(sums)}
	appapi.Finalize(rt, &res, &sec)
	return res
}
