package volrend

import (
	"math"
	"testing"

	"cables/internal/apps/appapi"
	"cables/internal/m4"
	"cables/internal/memsys"
	"cables/internal/sim"
)

func runVol(t *testing.T, procs int) float64 {
	t.Helper()
	rt := m4.New(m4.Config{Procs: procs, ProcsPerNode: 2, ArenaBytes: 32 << 20})
	res := Run(rt, Config{Volume: 16, Image: 64, Frames: 2, RowsPerTask: 2})
	if res.Checksum <= 0 {
		t.Fatal("nothing rendered")
	}
	return res.Checksum
}

// TestRenderIndependentOfScheduling: scanline groups are distributed by a
// dynamic queue; the rendered frames must not depend on the distribution.
func TestRenderIndependentOfScheduling(t *testing.T) {
	base := runVol(t, 1)
	for _, procs := range []int{4, 8} {
		got := runVol(t, procs)
		if rel := math.Abs(got-base) / base; rel > 1e-9 {
			t.Errorf("p=%d drift: %g vs %g", procs, got, base)
		}
	}
}

// TestFramesAccumulate: rendering more frames yields a larger total.
func TestFramesAccumulate(t *testing.T) {
	rt1 := m4.New(m4.Config{Procs: 2, ProcsPerNode: 2, ArenaBytes: 32 << 20})
	one := Run(rt1, Config{Volume: 16, Image: 32, Frames: 1, RowsPerTask: 2})
	rt3 := m4.New(m4.Config{Procs: 2, ProcsPerNode: 2, ArenaBytes: 32 << 20})
	three := Run(rt3, Config{Volume: 16, Image: 32, Frames: 3, RowsPerTask: 2})
	if three.Checksum <= one.Checksum {
		t.Errorf("frames did not accumulate: 1=%g 3=%g", one.Checksum, three.Checksum)
	}
}

// addrRT records the address of every allocation by label, so a test can
// read Run's shared arrays back.
type addrRT struct {
	appapi.Runtime
	addrs map[string]memsys.Addr
}

func (r *addrRT) Malloc(t *sim.Task, label string, size int64) (memsys.Addr, error) {
	a, err := r.Runtime.Malloc(t, label, size)
	r.addrs[label] = a
	return a, err
}

// refRow renders row y of the frame at angle ang with the ray formula
// written out per sample, and counts the samples of in-range rows whose ray
// has left the volume.
func refRow(local []float64, vol, img, y int, ang float64) (row []float64, outside int) {
	sample := func(x, y, z float64) float64 {
		xi, yi, zi := int(x), int(y), int(z)
		if yi >= 0 && yi < vol-1 && (xi < 0 || zi < 0 || xi >= vol-1 || zi >= vol-1) {
			outside++
		}
		if xi < 0 || yi < 0 || zi < 0 || xi >= vol-1 || yi >= vol-1 || zi >= vol-1 {
			return 0
		}
		return local[(zi*vol+yi)*vol+xi]
	}
	sa, ca := math.Sin(ang), math.Cos(ang)
	h := float64(float64(vol) / 2)
	row = make([]float64, img)
	for x := range row {
		ox := float64(float64(x) / float64(img) * float64(vol))
		oy := float64(y) / float64(img) * float64(vol)
		acc06, opacity := 0.0, 0.0
		for s := 0; s < vol; s++ {
			sz := float64(s)
			rx := float64(ca*(ox-h)) - float64(sa*(sz-h)) + h
			rz := float64(sa*(ox-h)) + float64(ca*(sz-h)) + h
			d := sample(rx, oy, rz)
			if d > 0.1 {
				acc06 += float64(d * (1 - opacity) * 0.25)
				opacity += float64(d * 0.2)
				if opacity >= 1 {
					break
				}
			}
		}
		row[x] = acc06
	}
	return row, outside
}

// TestRowsMatchPerSampleFormula renders through Run and compares every row
// of the last frame, and the one-processor checksum over all frames, bit
// for bit against the per-sample formula.  The rotated frames send rays out
// of the volume, and the top rows' y lies outside it.  Every product that
// feeds an add is rounded explicitly, here and in Run, so no GOARCH fuses
// either into a multiply-add (`make fma` checks it).
func TestRowsMatchPerSampleFormula(t *testing.T) {
	cfg := Config{Volume: 16, Image: 64, Frames: 3, RowsPerTask: 2}
	vol, img := cfg.Volume, cfg.Image
	rt := &addrRT{Runtime: m4.New(m4.Config{Procs: 1, ProcsPerNode: 2, ArenaBytes: 32 << 20}), addrs: map[string]memsys.Addr{}}
	res := Run(rt, cfg)

	main, acc := rt.Main(), rt.Acc()
	local := make([]float64, vol*vol*vol)
	acc.ReadF64s(main, rt.addrs["vol.volume"], local)
	image := make([]float64, img*img)
	acc.ReadF64s(main, rt.addrs["vol.image"], image)

	sum, outside, emptyRows := 0.0, 0, 0
	for f := 0; f < cfg.Frames; f++ {
		for y := 0; y < img; y++ {
			want, out := refRow(local, vol, img, y, float64(f)*0.3)
			for _, v := range want {
				sum += v
			}
			outside += out
			if int(float64(y)/float64(img)*float64(vol)) >= vol-1 {
				emptyRows++
			}
			if f < cfg.Frames-1 {
				continue
			}
			for x, w := range want {
				if got := image[y*img+x]; math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("frame %d row %d pixel %d: %v, want %v", f, y, x, got, w)
				}
			}
		}
	}
	if math.Float64bits(res.Checksum) != math.Float64bits(sum) {
		t.Errorf("checksum %v, want %v", res.Checksum, sum)
	}
	if outside == 0 || emptyRows == 0 {
		t.Errorf("reference covered %d samples off the volume and %d out-of-range rows; want both", outside, emptyRows)
	}
}
