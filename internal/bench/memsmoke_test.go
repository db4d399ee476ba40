package bench

import (
	"testing"

	"cables/internal/memsys"
)

// These are the frame-leak assertions: every successful run tears its
// space down (suite.go's Release call), so the process-wide resident-frame
// gauge must return exactly to its pre-run level after each cell.  A
// nonzero residue means a refcount leak somewhere in the COW frame store —
// a twin not retired or an unbalanced Ref/Release pair.

// runLeakChecked runs one cell sequentially and asserts the gauge returns
// to its baseline.
func runLeakChecked(t *testing.T, app, backend string, procs int, scale Scale) {
	t.Helper()
	base := memsys.FramesResident()
	mustRun(t, app, backend, procs, scale, nil)
	if got := memsys.FramesResident(); got != base {
		t.Errorf("%s/%s at %d procs leaked %d frames (resident %d, baseline %d)",
			app, backend, procs, got-base, got, base)
	}
}

// TestFrameLeakBothSched runs one cell and checks the frame gauge returns
// to baseline.  Its name and its subtest date from when a second thread
// manager existed; the subtest is named for the event-driven run queue,
// now the only one.
func TestFrameLeakBothSched(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		runLeakChecked(t, "FFT", BackendGenima, 4, ScaleTest)
	})
}

// TestMemSmoke sweeps the fig5-small grid (FFT and LU at 1 and 4
// processors, both backends) cell by cell, asserting after every cell that
// framesResident is back at its baseline.  Cells run sequentially — the
// gauge is process-global, so concurrent cells would see each other.
func TestMemSmoke(t *testing.T) {
	for _, app := range []string{"FFT", "LU"} {
		for _, procs := range []int{1, 4} {
			for _, backend := range []string{BackendGenima, BackendCables} {
				runLeakChecked(t, app, backend, procs, ScaleTest)
			}
		}
	}
}

// TestMemSmokeFullSizeFFT runs the paper testbed's actual 4M-point FFT
// (M=22, 128 MB of matrices) end to end: it must complete within host
// memory — feasible only since frames went copy-on-write — and release
// every frame afterwards.  About 2 s of wall clock and a 176 MiB frame peak
// above the pre-run level; the upper bound catches a change that copies a
// page where the frame store aliases it.
func TestMemSmokeFullSizeFFT(t *testing.T) {
	base := memsys.FramesResident()
	memsys.ResetFramesPeak()
	runLeakChecked(t, "FFT", BackendGenima, 8, ScaleFull)
	peakBytes := (memsys.FramesResidentPeak() - base) * memsys.PageSize
	t.Logf("full-size FFT peak resident: %d MiB", peakBytes>>20)
	if peakBytes < 128<<20 {
		t.Errorf("peak resident %d bytes — a 4M-point FFT must materialize its 128 MB of matrices; is the full-size config wired up?", peakBytes)
	}
	if peakBytes > 192<<20 {
		t.Errorf("peak resident %d MiB, want at most 192 MiB — is a path copying a page the frame store should alias?", peakBytes>>20)
	}
}
