package volrend

import (
	"math"
	"slices"
	"testing"

	"cables/internal/apps/appapi"
	cables "cables/internal/core"
	"cables/internal/m4"
	"cables/internal/memsys"
	"cables/internal/sim"
)

// backends builds a runtime of procs processors on each backend.
var backends = map[string]func(procs int) appapi.Runtime{
	"genima": func(procs int) appapi.Runtime {
		return m4.New(m4.Config{Procs: procs, ProcsPerNode: 2, ArenaBytes: 32 << 20})
	},
	"cables": func(procs int) appapi.Runtime {
		return cables.NewM4(cables.M4Config{Procs: procs, ProcsPerNode: 2, ArenaBytes: 32 << 20})
	},
}

// TestRenderIndependentOfScheduling: scanline groups are distributed by a
// dynamic queue; the checksum adds the rows in (frame, row) order, so it
// must not depend on the distribution, the processor count or the backend.
func TestRenderIndependentOfScheduling(t *testing.T) {
	cfg := Config{Volume: 16, Image: 64, Frames: 2, RowsPerTask: 2}
	base := Run(backends["genima"](1), cfg).Checksum
	if base <= 0 {
		t.Fatal("nothing rendered")
	}
	for name, rt := range backends {
		for _, procs := range []int{1, 4, 8} {
			if got := Run(rt(procs), cfg).Checksum; math.Float64bits(got) != math.Float64bits(base) {
				t.Errorf("%s p=%d: checksum %v, want %v", name, procs, got, base)
			}
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
// of the last frame, and the checksum over all frames (each row summed in
// pixel order, the rows added in frame and row order), bit for bit against
// the per-sample formula.  The rotated frames send rays out
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
			rowSum := 0.0
			for _, v := range want {
				rowSum += v
			}
			sum += rowSum
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

// TestRowTableMatchesReplica: at the default size, every row of the table
// main renders from its host copy of the volume equals the row a worker
// renders from the replica it reads through the protocol, bit for bit, and
// the image's last frame is made of the table's rows.
func TestRowTableMatchesReplica(t *testing.T) {
	cfg := DefaultConfig()
	vol, img := cfg.Volume, cfg.Image
	rt := &addrRT{Runtime: backends["cables"](4), addrs: map[string]memsys.Addr{}}
	Run(rt, cfg)

	main, acc := rt.Main(), rt.Acc()
	replica := make([]float64, vol*vol*vol)
	acc.ReadF64s(main, rt.addrs["vol.volume"], replica)
	field := density(vol)
	if !sameBits(replica, field) {
		t.Fatal("the replica read through the protocol differs from main's field")
	}
	rays := castRays(vol, img, cfg.Frames)
	table := rowTable(field, rays, vol, img)
	row := make([]float64, img)
	for f := range table {
		for yi, want := range table[f] {
			renderRow(replica, rays[f], vol, yi, row)
			if !sameBits(row, want) {
				t.Fatalf("frame %d row yi=%d: the table differs from the replica's render", f, yi)
			}
		}
	}
	imageIsRows(t, rt, table[cfg.Frames-1], vol, img)
}

// imageIsRows checks that every row y of the image Run left in rt is
// rows[yi], bit for bit, where yi is y's volume row.
func imageIsRows(t *testing.T, rt *addrRT, rows [][]float64, vol, img int) {
	t.Helper()
	image := make([]float64, img*img)
	rt.Acc().ReadF64s(rt.Main(), rt.addrs["vol.image"], image)
	for y := 0; y < img; y++ {
		yi := int(float64(y) / float64(img) * float64(vol))
		if !sameBits(image[y*img:][:img], rows[yi]) {
			t.Fatalf("image row %d is not row yi=%d", y, yi)
		}
	}
}

// perturbRT writes one voxel of the volume after the init barrier, in the
// worker's own copy of the page, so the worker's replica differs from
// main's host copy of the field.
type perturbRT struct {
	*addrRT
	voxel int
	value float64
}

func (r *perturbRT) Barrier(t *sim.Task, name string, parties int) {
	r.addrRT.Barrier(t, name, parties)
	if name == "vol.init" {
		r.Acc().WriteF64(t, r.addrs["vol.volume"]+memsys.Addr(r.voxel*8), r.value)
	}
}

// TestPerturbedReplicaRendersOwnRows: a worker whose replica differs from
// main's field in one word renders every row from its replica, so the
// image and the checksum follow what the worker read, not the table.
func TestPerturbedReplicaRendersOwnRows(t *testing.T) {
	cfg := Config{Volume: 16, Image: 64, Frames: 2, RowsPerTask: 2}
	vol, img := cfg.Volume, cfg.Image
	field := density(vol)
	// A voxel on row yi = vol/2 in the middle of the volume, which the
	// first frame's rays cross before their opacity saturates.
	voxel := (vol/2*vol+vol/2)*vol + vol/2
	rt := &perturbRT{
		addrRT: &addrRT{Runtime: backends["genima"](1), addrs: map[string]memsys.Addr{}},
		voxel:  voxel,
		value:  field[voxel] + 0.5,
	}
	res := Run(rt, cfg)

	replica := slices.Clone(field)
	replica[voxel] = rt.value
	rays := castRays(vol, img, cfg.Frames)
	own, table := rowTable(replica, rays, vol, img), rowTable(field, rays, vol, img)
	sum, moved := 0.0, 0
	for f := range own {
		for y := 0; y < img; y++ {
			yi := int(float64(y) / float64(img) * float64(vol))
			rowSum := 0.0
			for _, v := range own[f][yi] {
				rowSum += v
			}
			sum += rowSum
			if !sameBits(own[f][yi], table[f][yi]) {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("the perturbed voxel changed no row; pick one the rays see")
	}
	if math.Float64bits(res.Checksum) != math.Float64bits(sum) {
		t.Errorf("checksum %v, want %v rendered from the perturbed replica", res.Checksum, sum)
	}
	imageIsRows(t, rt.addrRT, own[cfg.Frames-1], vol, img)
}
