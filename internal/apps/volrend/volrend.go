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

	// Main builds the volume, read-only afterwards, and keeps its host copy.
	field := density(vol)
	for r := 0; r < vol*vol; r++ {
		acc.WriteF64s(main, volume+memsys.Addr(r*vol*8), field[r*vol:][:vol])
	}

	rays := castRays(vol, img, cfg.Frames)
	table := rowTable(field, rays, vol, img)
	// Each row's pixel sum lands at its own index, so the checksum adds the
	// rows in (frame, row) order whichever worker rendered them.
	rowSums := make([]float64, cfg.Frames*img)
	var sec appapi.Section

	appapi.RunWorkers(rt, procs, func(t *sim.Task, p int) {
		rt.Barrier(t, "vol.init", procs)
		sec.Enter(t)

		// Replicate the volume locally (read-only pages fault in once).
		local := make([]float64, vol*vol*vol)
		acc.ReadF64s(t, volume, local)
		shared := sameBits(local, field)

		own := make([]float64, img)
		tasksPerFrame := img / cfg.RowsPerTask
		for f := 0; f < cfg.Frames; f++ {
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
					yi := int(float64(y) / float64(img) * float64(vol))
					row := table[f][yi]
					if !shared {
						row = own
						renderRow(local, rays[f], vol, yi, row)
					}
					sum := 0.0
					for _, v := range row {
						sum += v
					}
					rowSums[f*img+y] = sum
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
		sec.Leave(t)
	})

	res := appapi.Result{App: "VOLREND"}
	for _, sum := range rowSums {
		res.Checksum += sum
	}
	appapi.Finalize(rt, &res, &sec)
	return res
}

// density returns the vol³ volume, row (z, y) at (z*vol+y)*vol: a smooth
// density field.  The sine factor is separable, so one table of Sin(6*c)
// serves all three axes; the product keeps its order and rounding.
func density(vol int) []float64 {
	sin6 := make([]float64, vol)
	for i := range sin6 {
		sin6[i] = math.Sin(6 * (float64(i-vol/2) / float64(vol)))
	}
	field := make([]float64, vol*vol*vol)
	for z := 0; z < vol; z++ {
		for y := 0; y < vol; y++ {
			row := field[(z*vol+y)*vol:][:vol]
			for x := range row {
				cx := float64(x-vol/2) / float64(vol)
				cy := float64(y-vol/2) / float64(vol)
				cz := float64(z-vol/2) / float64(vol)
				row[x] = math.Exp(-8*(float64(cx*cx)+float64(cy*cy)+float64(cz*cz))) +
					float64(0.3*sin6[x]*sin6[y]*sin6[z])
			}
		}
	}
	return field
}

// rowTable renders every (frame, volume row yi) of field once.  A row's
// pixels depend on y only through yi, so a worker whose replica of the
// volume matches field bit for bit writes table[f][yi] for image row y.
func rowTable(field []float64, rays [][][]int32, vol, img int) [][][]float64 {
	rows := make([]float64, len(rays)*vol*img)
	table := make([][][]float64, len(rays))
	for f := range table {
		table[f] = make([][]float64, vol)
		for yi := range table[f] {
			table[f][yi], rows = rows[:img:img], rows[img:]
			renderRow(field, rays[f], vol, yi, table[f][yi])
		}
	}
	return table
}

// renderRow renders volume row yi of one frame into row: pixel x walks the
// samples rays[x] in order, accumulating densities above 0.1 until its
// opacity reaches 1.  Rays through the top row yi = vol-1, or outside the
// volume, see only zeros.
func renderRow(local []float64, rays [][]int32, vol, yi int, row []float64) {
	for x := range row {
		acc06, opacity := 0.0, 0.0
		if yi >= 0 && yi < vol-1 {
			plane := local[yi*vol:]
			for _, off := range rays[x] {
				d := plane[off]
				if d > 0.1 {
					acc06 += float64(d * (1 - opacity) * 0.25)
					opacity += float64(d * 0.2)
					if opacity >= 1 {
						break
					}
				}
			}
		}
		row[x] = acc06
	}
}

// sameBits reports whether a and b hold the same words, bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// castRays casts every ray of every frame once: for frame f and image
// column x it returns the offsets zi*vol*vol+xi of the ray's samples inside
// the volume, in sample order, so the sample in volume row yi is
// local[yi*vol:][off].  A ray sample at step s of column x is
//
//	rx = ca*(ox-h) - sa*(s-h) + h,  rz = sa*(ox-h) + ca*(s-h) + h
//
// with h = vol/2 and the frame's angle in sa, ca; samples outside the
// volume are left out.  The rays do not depend on the row, so every row of
// a frame walks the same offsets.  Each product is rounded explicitly, so
// every sample is bit-identical to the inline formula on any GOARCH
// (DESIGN.md §5b).
func castRays(vol, img, frames int) [][][]int32 {
	// The compiler halves by multiplying by 0.5, so h is rounded too.
	h := float64(float64(vol) / 2)
	offs := make([]int32, 0, frames*img*vol)
	rays := make([][][]int32, frames)
	for f := range rays {
		ang := float64(f) * 0.3
		sa, ca := math.Sin(ang), math.Cos(ang)
		rays[f] = make([][]int32, img)
		for x := range rays[f] {
			ox := float64(float64(x) / float64(img) * float64(vol))
			ax, az := float64(ca*(ox-h)), float64(sa*(ox-h))
			start := len(offs)
			for s := 0; s < vol; s++ {
				sz, cz := float64(sa*(float64(s)-h)), float64(ca*(float64(s)-h))
				xi, zi := int(ax-sz+h), int(az+cz+h)
				if xi < 0 || zi < 0 || xi >= vol-1 || zi >= vol-1 {
					continue
				}
				offs = append(offs, int32(zi*vol*vol+xi))
			}
			rays[f][x] = offs[start:len(offs):len(offs)]
		}
	}
	return rays
}
