// Package water ports the SPLASH-2 WATER-SPATIAL application (and the
// WATER-SPAT-FL variant): molecular dynamics over water molecules binned
// into a 3D cell grid, with short-range forces computed from neighboring
// cells.  Molecule state is stored cell-major in separate position /
// velocity / force arrays; cells are block-partitioned over processors, so
// one processor's molecules occupy a run of records big enough for per-page
// (4 KB) first touch to place correctly but far smaller than a 64 KB map
// unit — which is exactly why WATER shows high misplaced-page percentages
// in the paper's Figure 6, with little performance impact (computation
// dominates and synchronization is infrequent).
package water

import (
	"math"

	"cables/internal/apps/appapi"
	"cables/internal/memsys"
	"cables/internal/sim"
)

// Config sizes the WATER run.
type Config struct {
	// Molecules is the molecule count (paper: 32768; scaled default 4096).
	Molecules int
	// Steps is the number of timesteps.
	Steps int
	// Cells is the cell-grid dimension (Cells^3 cells total); Molecules is
	// rounded down to a multiple of Cells^3.
	Cells int
	// FineLocks selects the WATER-SPAT-FL variant: per-cell locks guard
	// force publication instead of the owner-computes rule alone.
	FineLocks bool
}

// DefaultConfig returns the scaled default problem size.
func DefaultConfig() Config { return Config{Molecules: 4096, Steps: 2, Cells: 8} }

const flopCost = 5 * sim.Nanosecond

// Run executes WATER on rt.
func Run(rt appapi.Runtime, cfg Config) appapi.Result {
	if cfg.Molecules == 0 {
		cfg = DefaultConfig()
	}
	nm, steps, cdim := cfg.Molecules, cfg.Steps, cfg.Cells
	ncells := cdim * cdim * cdim
	if nm%ncells != 0 {
		nm -= nm % ncells
	}
	mpc := nm / ncells // molecules per cell (static occupancy)
	procs := rt.Procs()
	main := rt.Main()
	acc := rt.Acc()

	// Cell-major state arrays: 3 doubles per molecule each.
	alloc := func(label string) memsys.Addr {
		a, err := rt.Malloc(main, label, int64(nm)*24)
		if err != nil {
			panic("water: " + err.Error())
		}
		return a
	}
	pos := alloc("water.pos")
	vel := alloc("water.vel")
	frc := alloc("water.frc")
	cellA := func(base memsys.Addr, c int) memsys.Addr {
		return base + memsys.Addr(c*mpc*24)
	}
	// Cells are block-partitioned over processors.
	cellOwner := func(c int) int { return c * procs / ncells }

	name := "WATER-SPATIAL"
	if cfg.FineLocks {
		name = "WATER-SPAT-FL"
	}

	var sec appapi.Section
	var red appapi.Reduce

	appapi.RunWorkers(rt, procs, func(t *sim.Task, p int) {
		cp := make([]float64, mpc*3) // own cell positions
		np := make([]float64, mpc*3) // neighbor cell positions
		cf := make([]float64, mpc*3) // own cell forces
		cv := make([]float64, mpc*3) // own cell velocities
		zero := make([]float64, mpc*3)

		// Init: owners place their cells' molecules on a jittered lattice.
		for c := 0; c < ncells; c++ {
			if cellOwner(c) != p {
				continue
			}
			cx, cy, cz := c%cdim, (c/cdim)%cdim, c/(cdim*cdim)
			for m := 0; m < mpc; m++ {
				i := c*mpc + m
				cp[m*3+0] = float64(cx) + 0.2 + float64(0.6*math.Abs(math.Sin(float64(i))))
				cp[m*3+1] = float64(cy) + 0.2 + float64(0.6*math.Abs(math.Cos(float64(3*i))))
				cp[m*3+2] = float64(cz) + 0.2 + float64(0.6*math.Abs(math.Sin(float64(7*i))))
			}
			acc.WriteF64s(t, cellA(pos, c), cp)
			acc.WriteF64s(t, cellA(vel, c), zero)
			acc.WriteF64s(t, cellA(frc, c), zero)
		}
		rt.Barrier(t, "water.init", procs)
		sec.Enter(t)

		potential := 0.0
		for step := 0; step < steps; step++ {
			// Force phase: positions are read-only; forces are written only
			// by each cell's owner.
			for c := 0; c < ncells; c++ {
				if cellOwner(c) != p {
					continue
				}
				acc.ReadF64s(t, cellA(pos, c), cp)
				for i := range cf {
					cf[i] = 0
				}
				pairs := 0
				forEachNeighbor(c, cdim, func(nc int) {
					src := np
					if nc == c {
						src = cp
					} else {
						acc.ReadF64s(t, cellA(pos, nc), np)
					}
					for m := 0; m < mpc; m++ {
						px, py, pz := cp[m*3], cp[m*3+1], cp[m*3+2]
						for o := 0; o < mpc; o++ {
							if nc == c && o == m {
								continue
							}
							dx, dy, dz := px-src[o*3], py-src[o*3+1], pz-src[o*3+2]
							r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz) + 0.01
							if r2 > 1.0 { // cutoff
								continue
							}
							inv := 1 / r2
							f := inv * inv * (inv - 0.5)
							cf[m*3+0] += float64(f * dx)
							cf[m*3+1] += float64(f * dy)
							cf[m*3+2] += float64(f * dz)
							potential += inv
							pairs++
						}
					}
				})
				// Publish the cell's forces; WATER-SPAT-FL guards the
				// publication with a per-cell lock.
				if cfg.FineLocks {
					rt.Lock(t, 100+c)
				}
				acc.WriteF64s(t, cellA(frc, c), cf)
				if cfg.FineLocks {
					rt.Unlock(t, 100+c)
				}
				t.Compute(sim.Time(pairs)*12*flopCost + sim.Time(mpc)*10*flopCost)
			}
			rt.Barrier(t, "water.force", procs)

			// Integrate phase: owners advance their cells' molecules.
			for c := 0; c < ncells; c++ {
				if cellOwner(c) != p {
					continue
				}
				acc.ReadF64s(t, cellA(pos, c), cp)
				acc.ReadF64s(t, cellA(vel, c), cv)
				acc.ReadF64s(t, cellA(frc, c), cf)
				const dt = 0.002
				for i := range cp {
					cv[i] += float64(dt * cf[i])
					cp[i] += float64(dt * cv[i])
				}
				acc.WriteF64s(t, cellA(pos, c), cp)
				acc.WriteF64s(t, cellA(vel, c), cv)
				t.Compute(sim.Time(mpc) * 12 * flopCost)
			}
			rt.Barrier(t, "water.integrate", procs)
		}

		// Global potential-energy reduction under a lock (the paper's
		// lock-protected global sums).
		rt.Lock(t, 1)
		rt.Unlock(t, 1)
		red.Add(p, potential)
		sec.Leave(t)
	})

	res := appapi.Result{App: name, Checksum: red.Sum(procs)}
	appapi.Finalize(rt, &res, &sec)
	return res
}

// forEachNeighbor visits c and its (up to 26) adjacent cells.
func forEachNeighbor(c, cdim int, fn func(nc int)) {
	cx, cy, cz := c%cdim, (c/cdim)%cdim, c/(cdim*cdim)
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				x, y, z := cx+dx, cy+dy, cz+dz
				if x < 0 || y < 0 || z < 0 || x >= cdim || y >= cdim || z >= cdim {
					continue
				}
				fn((z*cdim+y)*cdim + x)
			}
		}
	}
}
