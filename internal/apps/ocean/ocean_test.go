package ocean

import (
	"math"
	"testing"

	"cables/internal/apps/appapi"
	"cables/internal/m4"
)

func runOcean(t *testing.T, procs, n, iters int) float64 {
	t.Helper()
	rt := m4.New(m4.Config{Procs: procs, ProcsPerNode: 2, ArenaBytes: 64 << 20})
	return Run(rt, Config{N: n, Iters: iters, AuxGrids: 4}).Checksum
}

// allocErr runs OCEAN and returns the error of a failed allocation, or nil.
func allocErr(rt appapi.Runtime, cfg Config) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ae, ok := r.(appapi.AllocError)
			if !ok {
				panic(r)
			}
			err = ae.Err
		}
	}()
	Run(rt, cfg)
	return nil
}

// TestResidualStableAcrossProcs: the SOR sweeps visit the same points in
// the same order per row regardless of partitioning.
func TestResidualStableAcrossProcs(t *testing.T) {
	base := runOcean(t, 1, 64, 2)
	for _, procs := range []int{4, 8} {
		got := runOcean(t, procs, 64, 2)
		if rel := math.Abs(got-base) / base; rel > 1e-9 {
			t.Errorf("p=%d residual drift: %g vs %g", procs, got, base)
		}
	}
}

// TestMoreItersMoreWork: the residual accumulator grows with sweeps.
func TestMoreItersMoreWork(t *testing.T) {
	two := runOcean(t, 2, 64, 2)
	four := runOcean(t, 2, 64, 4)
	if four <= two {
		t.Errorf("iterations did not accumulate: 2=%g 4=%g", two, four)
	}
}

// TestSegmentCountTripsBaseRegistration reproduces the paper's OCEAN
// observation at the allocation level: the default 50 segments register on
// up to 8 nodes but not on 16.
func TestSegmentCountTripsBaseRegistration(t *testing.T) {
	rt16 := m4.New(m4.Config{Procs: 32, ProcsPerNode: 2, ArenaBytes: 64 << 20})
	if err := allocErr(rt16, Config{N: 64, Iters: 1, AuxGrids: 42}); err == nil {
		t.Error("expected registration failure on 16 nodes")
	}
	rt8 := m4.New(m4.Config{Procs: 16, ProcsPerNode: 2, ArenaBytes: 64 << 20})
	if err := allocErr(rt8, Config{N: 64, Iters: 1, AuxGrids: 42}); err != nil {
		t.Errorf("unexpected failure on 8 nodes: %v", err)
	}
}
