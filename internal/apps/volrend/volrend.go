// Package volrend ports the SPLASH-2 VOLREND application in scaled form:
// volume rendering by ray casting over a shared, read-only volume, writing
// an image whose scanline groups are handed out dynamically.  The image
// rows are small relative to the 64 KB map unit and are claimed by whichever
// node renders first, so image pages written by other processors in later
// frames are badly placed — VOLREND is the paper's worst case (Figure 6
// high misplacement AND real slowdown: speedup 12.09 on the base system vs
// 6.49 on CableS at 32 processors).
package volrend

import (
	"math"

	"cables/internal/apps/appapi"
	"cables/internal/memsys"
	"cables/internal/sim"
)

// Config sizes the VOLREND run.
type Config struct {
	// Volume is the cubic volume dimension (scaled default 32).
	Volume int
	// Image is the square image dimension (scaled default 128).
	Image int
	// Frames is the number of rendered frames (rotating viewpoint).
	Frames int
	// RowsPerTask is the scanline-group size handed out by the queue.
	RowsPerTask int
}

// DefaultConfig returns the scaled default problem size.  The image
// dominates the footprint (as in the paper's head dataset renders), so the
// scanline misplacement drives both Figure 6 and the CableS slowdown.
func DefaultConfig() Config { return Config{Volume: 32, Image: 256, Frames: 2, RowsPerTask: 2} }

const flopCost = 5 * sim.Nanosecond

// Run executes VOLREND on rt.
func Run(rt appapi.Runtime, cfg Config) appapi.Result {
	if cfg.Volume == 0 {
		cfg = DefaultConfig()
	}
	vol, img := cfg.Volume, cfg.Image
	procs := rt.Procs()
	main := rt.Main()
	acc := rt.Acc()

	volume, err := rt.Malloc(main, "vol.volume", int64(vol*vol*vol)*8)
	if err != nil {
		panic("volrend: " + err.Error())
	}
	image, err := rt.Malloc(main, "vol.image", int64(img*img)*8)
	if err != nil {
		panic("volrend: " + err.Error())
	}
	queue, err := rt.Malloc(main, "vol.queue", 8)
	if err != nil {
		panic("volrend: " + err.Error())
	}

	// Main builds the volume: a smooth density field (read-only afterwards).
	{
		row := make([]float64, vol)
		for z := 0; z < vol; z++ {
			for y := 0; y < vol; y++ {
				for x := 0; x < vol; x++ {
					cx := float64(x-vol/2) / float64(vol)
					cy := float64(y-vol/2) / float64(vol)
					cz := float64(z-vol/2) / float64(vol)
					row[x] = math.Exp(-8*(cx*cx+cy*cy+cz*cz)) +
						0.3*math.Sin(6*cx)*math.Sin(6*cy)*math.Sin(6*cz)
				}
				acc.WriteF64s(main, volume+memsys.Addr(((z*vol+y)*vol)*8), row)
			}
		}
	}

	var sec appapi.Section
	var red appapi.Reduce

	appapi.RunWorkers(rt, procs, func(t *sim.Task, p int) {
		rt.Barrier(t, "vol.init", procs)
		sec.Enter(t)

		// Replicate the volume locally (read-only pages fault in once).
		local := make([]float64, vol*vol*vol)
		acc.ReadF64s(t, volume, local)

		// A ray sample at step s of pixel x is
		//	rx = ca*(ox-h) - sa*(s-h) + h,  rz = sa*(ox-h) + ca*(s-h) + h
		// with h = vol/2.  The per-step and per-pixel products are hoisted
		// into sz/cz and ax/az; the sums run in the same order on the same
		// operands, so every sample is bit-identical to the inline formula
		// wherever the compiler fuses no multiply-add (DESIGN.md §5b).
		h := float64(vol) / 2
		sz, cz := make([]float64, vol), make([]float64, vol)
		row := make([]float64, img)
		sum := 0.0
		tasksPerFrame := img / cfg.RowsPerTask
		for f := 0; f < cfg.Frames; f++ {
			ang := float64(f) * 0.3
			sa, ca := math.Sin(ang), math.Cos(ang)
			for s := range sz {
				sz[s] = sa * (float64(s) - h)
				cz[s] = ca * (float64(s) - h)
			}
			for {
				rt.Lock(t, 1)
				task := acc.ReadI64(t, queue)
				if int(task) < tasksPerFrame {
					acc.WriteI64(t, queue, task+1)
				}
				rt.Unlock(t, 1)
				if int(task) >= tasksPerFrame {
					break
				}
				for ry := 0; ry < cfg.RowsPerTask; ry++ {
					y := int(task)*cfg.RowsPerTask + ry
					// Every ray of the row samples volume row yi; outside
					// the volume every sample is 0.
					yi := int(float64(y) / float64(img) * float64(vol))
					yOK := yi >= 0 && yi < vol-1
					for x := 0; x < img; x++ {
						// Cast a rotated ray through the volume.
						ox := float64(x) / float64(img) * float64(vol)
						ax, az := ca*(ox-h), sa*(ox-h)
						acc06 := 0.0
						opacity := 0.0
						for s := 0; s < vol && yOK; s++ {
							xi, zi := int(ax-sz[s]+h), int(az+cz[s]+h)
							if xi < 0 || zi < 0 || xi >= vol-1 || zi >= vol-1 {
								continue
							}
							d := local[(zi*vol+yi)*vol+xi]
							if d > 0.1 {
								contrib := d * (1 - opacity) * 0.25
								acc06 += contrib
								opacity += d * 0.2
								if opacity >= 1 {
									break
								}
							}
						}
						row[x] = acc06
						sum += acc06
					}
					acc.WriteF64s(t, image+memsys.Addr(y*img*8), row)
					t.Compute(sim.Time(img) * sim.Time(vol) * 8 * flopCost)
				}
			}
			// Frame barrier; processor 0 resets the queue for the next frame.
			rt.Barrier(t, "vol.frame", procs)
			if p == 0 {
				rt.Lock(t, 1)
				acc.WriteI64(t, queue, 0)
				rt.Unlock(t, 1)
			}
			rt.Barrier(t, "vol.reset", procs)
		}
		red.Add(p, sum)
		sec.Leave(t)
	})

	res := appapi.Result{App: "VOLREND", Checksum: red.Sum(procs)}
	appapi.Finalize(rt, &res, &sec)
	return res
}
