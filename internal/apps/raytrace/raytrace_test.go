package raytrace

import (
	"math"
	"testing"

	"cables/internal/apps/appapi"
	cables "cables/internal/core"
	"cables/internal/m4"
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

// TestImageSumIndependentOfScheduling: the dynamic tile queue hands tiles
// to whichever worker asks first; the checksum adds the tiles in tile
// order, so it must not depend on who rendered what, the processor count
// or the backend.
func TestImageSumIndependentOfScheduling(t *testing.T) {
	cfg := Config{Image: 64, Spheres: 32, Tile: 16, GridBytes: 256 << 10}
	base := Run(backends["genima"](1), cfg).Checksum
	if base <= 0 {
		t.Fatal("empty image")
	}
	for name, rt := range backends {
		for _, procs := range []int{1, 4, 8} {
			if got := Run(rt(procs), cfg).Checksum; math.Float64bits(got) != math.Float64bits(base) {
				t.Errorf("%s p=%d: checksum %v, want %v", name, procs, got, base)
			}
		}
	}
}

// TestTraceHitsAndMisses exercises the intersection kernel directly.
func TestTraceHitsAndMisses(t *testing.T) {
	// One sphere dead ahead.
	scene := make([]float64, 8)
	scene[0], scene[1], scene[2] = 0, 0, 5 // center
	scene[3] = 1                           // radius
	scene[4] = 1                           // albedo
	hit := trace(scene, 1, 32, 32, 64)     // center pixel
	if hit <= 0.05 {
		t.Errorf("center ray missed: %g", hit)
	}
	miss := trace(scene, 1, 0, 0, 64) // far corner
	if miss != 0.05 {
		t.Errorf("corner ray hit: %g", miss)
	}
}

// TestNearestSphereWins: with two spheres on the same ray the closer one
// sets the shade.
func TestNearestSphereWins(t *testing.T) {
	scene := make([]float64, 16)
	// Far bright sphere.
	scene[0], scene[1], scene[2], scene[3], scene[4] = 0, 0, 9, 1, 1.0
	// Near dim sphere.
	scene[8], scene[9], scene[10], scene[11], scene[12] = 0, 0, 4, 1, 0.2
	two := trace(scene, 2, 32, 32, 64)
	near := trace(scene[8:], 1, 32, 32, 64)
	if math.Abs(two-near) > 1e-12 {
		t.Errorf("occlusion wrong: two=%g near-only=%g", two, near)
	}
}
