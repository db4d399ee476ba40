// Package raytrace ports the SPLASH-2 RAYTRACE application in scaled form:
// a ray tracer over a shared, read-mostly scene with a dynamic tile work
// queue (task stealing through a lock-protected counter).  Scene pages
// replicate on first fault and are never written, so RAYTRACE keeps low
// misplacement and scales well; the work queue lock is the contended
// resource.
package raytrace

import (
	"math"

	"cables/internal/apps/appapi"
	"cables/internal/memsys"
	"cables/internal/sim"
)

// Config sizes the RAYTRACE run.
type Config struct {
	// Image is the square image dimension (scaled default 128).
	Image int
	// Spheres is the scene object count.
	Spheres int
	// Tile is the square tile size handed out by the work queue.
	Tile int
	// GridBytes sizes the read-only acceleration grid built by the master
	// (the bulk of RAYTRACE's footprint — car.512.env in the paper); its
	// pages replicate on demand and are never misplaced, which keeps
	// RAYTRACE's Figure 6 percentage low.
	GridBytes int64
}

// DefaultConfig returns the scaled default problem size.
func DefaultConfig() Config {
	return Config{Image: 128, Spheres: 64, Tile: 16, GridBytes: 2 << 20}
}

const flopCost = 5 * sim.Nanosecond

// Run executes RAYTRACE on rt.
func Run(rt appapi.Runtime, cfg Config) appapi.Result {
	if cfg.Image == 0 {
		cfg = DefaultConfig()
	}
	img, ns, tile := cfg.Image, cfg.Spheres, cfg.Tile
	procs := rt.Procs()
	main := rt.Main()
	acc := rt.Acc()

	// Scene: ns spheres of 8 doubles (center xyz, radius, color rgb, pad).
	scene := appapi.Alloc(rt, "ray.scene", int64(ns)*64)
	image := appapi.Alloc(rt, "ray.image", int64(img)*int64(img)*8)
	// Work queue: one shared counter of tiles handed out.
	queue := appapi.Alloc(rt, "ray.queue", 8)
	// Acceleration grid: large, read-only, master-built.
	grid := appapi.Alloc(rt, "ray.grid", cfg.GridBytes)
	gridWords := int(cfg.GridBytes / 8)

	// The main thread builds the scene (read-only thereafter).
	{
		rec := make([]float64, 8)
		for s := 0; s < ns; s++ {
			rec[0] = 4 * math.Sin(float64(3*s))
			rec[1] = 4 * math.Cos(float64(5*s))
			rec[2] = 6 + float64(3*math.Sin(float64(s)))
			rec[3] = 0.3 + float64(0.2*math.Abs(math.Cos(float64(s))))
			rec[4] = 0.5 + float64(0.5*math.Sin(float64(7*s)))
			acc.WriteF64s(main, scene+memsys.Addr(s*64), rec)
		}
		acc.WriteI64(main, queue, 0)
		cellRow := make([]float64, 512)
		for o := 0; o < gridWords; o += len(cellRow) {
			for k := range cellRow {
				// The fractional part, exactly as math.Mod(x, 1) gives it for
				// x >= 0 but without its loop.  The conversion rounds the
				// product, so no target fuses it into the subtraction.
				x := float64(float64(o+k) * 0.618)
				cellRow[k] = x - math.Floor(x)
			}
			acc.WriteF64s(main, grid+memsys.Addr(o*8), cellRow)
		}
	}

	tilesPerDim := img / tile
	totalTiles := tilesPerDim * tilesPerDim

	var sec appapi.Section
	// Each tile's pixel sum lands at its own index, so the checksum adds the
	// tiles in tile order whichever worker took them from the queue.
	tileSums := make([]float64, totalTiles)

	appapi.RunWorkers(rt, procs, func(t *sim.Task, _ int) {
		rt.Barrier(t, "ray.init", procs)
		sec.Enter(t)

		// Cache the scene locally: the pages replicate on first fault and
		// all later intersection tests run against the local copy.
		local := make([]float64, ns*8)
		acc.ReadF64s(t, scene, local)

		row := make([]float64, tile)
		for {
			// Dynamic tile queue (task stealing in the original program).
			rt.Lock(t, 1)
			tid := acc.ReadI64(t, queue)
			if int(tid) < totalTiles {
				acc.WriteI64(t, queue, tid+1)
			}
			rt.Unlock(t, 1)
			if int(tid) >= totalTiles {
				break
			}
			tx, ty := int(tid)%tilesPerDim, int(tid)/tilesPerDim
			// Traverse the grid cells this tile's rays pass through: a
			// read-only slice of the acceleration structure, replicated on
			// first fault.
			gslice := make([]float64, 512)
			goff := (int(tid) * 4096) % (gridWords - len(gslice))
			acc.ReadF64s(t, grid+memsys.Addr(goff*8), gslice)
			gterm := float64(gslice[0] * 1e-9)
			sum := 0.0
			for y := ty * tile; y < (ty+1)*tile; y++ {
				for x := tx * tile; x < (tx+1)*tile; x++ {
					v := trace(local, ns, x, y, img) + gterm
					row[x-tx*tile] = v
					sum += v
				}
				acc.WriteF64s(t, image+memsys.Addr((y*img+tx*tile)*8), row)
				t.Compute(sim.Time(tile) * sim.Time(ns) * 12 * flopCost)
			}
			tileSums[tid] = sum
		}
		sec.Leave(t)
	})

	res := appapi.Result{App: "RAYTRACE", Checksum: appapi.Sum(tileSums)}
	appapi.Finalize(rt, &res, &sec)
	return res
}

// trace fires one primary ray and returns its shade.
func trace(scene []float64, ns, x, y, img int) float64 {
	// Ray from origin through the pixel on a z=1 screen.
	dx := (float64(x)/float64(img) - 0.5) * 2
	dy := (float64(y)/float64(img) - 0.5) * 2
	dz := 1.0
	n := math.Sqrt(float64(dx*dx) + float64(dy*dy) + float64(dz*dz))
	dx, dy, dz = dx/n, dy/n, dz/n

	best := math.Inf(1)
	shade := 0.05 // background
	for s := 0; s < ns; s++ {
		cx, cy, cz := scene[s*8], scene[s*8+1], scene[s*8+2]
		r := scene[s*8+3]
		// Solve |o + t d - c|^2 = r^2 with o at the origin.
		b := float64(dx*cx) + float64(dy*cy) + float64(dz*cz)
		c := float64(cx*cx) + float64(cy*cy) + float64(cz*cz) - float64(r*r)
		disc := float64(b*b) - c
		if disc <= 0 {
			continue
		}
		th := b - math.Sqrt(disc)
		if th > 0.01 && th < best {
			best = th
			// Lambertian-ish shade from a fixed light direction.
			px, py, pz := float64(dx*th), float64(dy*th), float64(dz*th)
			nx, ny, nz := (px-cx)/r, (py-cy)/r, (pz-cz)/r
			l := float64(nx*0.57) + float64(ny*0.57) + float64(nz*0.57)
			if l < 0 {
				l = 0
			}
			shade = 0.1 + float64(0.9*l*scene[s*8+4])
		}
	}
	return shade
}
