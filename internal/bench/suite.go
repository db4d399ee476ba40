// Package bench is the experiment harness: it reconstructs every table and
// figure of the paper's evaluation (§3) from the simulated systems.  Each
// exported TableN/FigN function prints the same rows/series the paper
// reports; bench_test.go at the repository root exposes them as Go
// benchmarks.
//
// Every cell runs through one function, RunCell: its CellOptions carry the
// cell's whole configuration (wire mode, fault plan and seed, coherence
// protocol) and its Attach the observer (the profiler).  Every batch sweep
// runs its Cells through Sweep, which returns one CellRun per cell, and
// each view (Fig5, Fig6, counters, faults, profile, protocols) renders
// those runs.  Beyond the paper's artifacts the harness exposes fault
// sweeps under a deterministic injection plan (RunFaults — `cablesim
// faults`, cells render DEGRADED rather than FAILED when the plan fires).
// Independent cells run concurrently on a bounded worker pool (RunCells,
// `-jobs N`).  Host wall-clock cost is recorded by the repository benchmark
// (benchmark/, BENCHMARK.json); TestHostCostBudgets bounds the hot paths'
// host cost against one flush.
package bench

import (
	"fmt"
	"io"

	"cables/internal/apps/appapi"
	"cables/internal/apps/fft"
	"cables/internal/apps/lu"
	"cables/internal/apps/ocean"
	"cables/internal/apps/radix"
	"cables/internal/apps/raytrace"
	"cables/internal/apps/volrend"
	"cables/internal/apps/water"
)

// Scale selects problem sizes: "test" for quick CI-size runs, "paper" for
// the (scaled-down) evaluation sizes used to regenerate the figures, and
// "full" for the paper testbed's actual SPLASH-2 problem sizes (feasible in
// host memory since the COW frame store; see EXPERIMENTS.md `-full-size`).
type Scale string

// Recognized scales.
const (
	ScaleTest  Scale = "test"
	ScalePaper Scale = "paper"
	ScaleFull  Scale = "full"
)

// Backend names.
const (
	BackendGenima = "genima" // the original, optimized SVM system (M4)
	BackendCables = "cables" // M4 macros on CableS pthreads
)

// AppNames lists the SPLASH-2 applications in the paper's Figure 5 order.
var AppNames = []string{
	"FFT", "LU", "OCEAN", "RADIX",
	"WATER-SPATIAL", "WATER-SPAT-FL", "VOLREND", "RAYTRACE",
}

// ProcCounts is the paper's processor sweep.
var ProcCounts = []int{1, 4, 8, 16, 32}

// PanicError is the error of a cell whose workload panicked.  A panic is
// not an outcome the cell's spec determines, so a result cache must not
// keep it (the farm returns such a cell but does not cache it).
type PanicError struct {
	App   string // the workload that panicked
	Value any    // the recovered panic value
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("bench: %s panicked: %v", e.App, e.Value)
}

// runAppOn dispatches to the workload implementations.  A panic in the
// workload is returned as a *PanicError.
func runAppOn(rt appapi.Runtime, name string, scale Scale) (res appapi.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{App: name, Value: r}
		}
	}()
	switch name {
	case "FFT":
		m := 18 // per-worker row blocks stay map-unit aligned at 32 procs
		switch scale {
		case ScaleTest:
			m = 12
		case ScaleFull:
			m = 22 // the paper testbed's 4M-point input (128 MB of matrices)
		}
		res = fft.Run(rt, fft.Config{M: m})
	case "LU":
		cfg := lu.DefaultConfig()
		switch scale {
		case ScaleTest:
			cfg.N = 192
		case ScaleFull:
			cfg.N = 2048 // 32 MB matrix, SPLASH-2's large input
		}
		res = lu.Run(rt, cfg)
	case "OCEAN":
		cfg := ocean.DefaultConfig()
		switch scale {
		case ScaleTest:
			cfg.N, cfg.Iters = 64, 2
		case ScaleFull:
			cfg.N = 512 // the testbed's 514x514 grid, at the solver's power-of-two
		}
		res, err = ocean.Run(rt, cfg)
	case "RADIX":
		cfg := radix.DefaultConfig()
		switch scale {
		case ScaleTest:
			cfg.N = 16 << 10
		case ScaleFull:
			cfg.N = 4 << 20 // 4M keys
		}
		res = radix.Run(rt, cfg)
	case "WATER-SPATIAL":
		cfg := water.DefaultConfig()
		switch scale {
		case ScaleTest:
			cfg.Molecules, cfg.Cells = 512, 4
		case ScaleFull:
			cfg.Molecules, cfg.Cells = 32768, 16
		}
		res = water.Run(rt, cfg)
	case "WATER-SPAT-FL":
		cfg := water.DefaultConfig()
		cfg.FineLocks = true
		switch scale {
		case ScaleTest:
			cfg.Molecules, cfg.Cells = 512, 4
		case ScaleFull:
			cfg.Molecules, cfg.Cells = 32768, 16
		}
		res = water.Run(rt, cfg)
	case "RAYTRACE":
		cfg := raytrace.DefaultConfig()
		switch scale {
		case ScaleTest:
			cfg.Image = 64
		case ScaleFull:
			cfg.Image = 512
		}
		res = raytrace.Run(rt, cfg)
	case "VOLREND":
		cfg := volrend.DefaultConfig()
		switch scale {
		case ScaleTest:
			cfg.Image, cfg.Frames = 64, 2
		case ScaleFull:
			cfg.Image = 256
		}
		res = volrend.Run(rt, cfg)
	default:
		return res, fmt.Errorf("bench: unknown application %q", name)
	}
	if err == nil {
		// Tear the space down: every frame reference is dropped and the
		// pool repopulated for the next cell, so back-to-back runs reuse
		// frames instead of re-allocating them (and TestMemSmoke can assert
		// that framesResident returns to its baseline).  A failed run may
		// leak blocked worker goroutines that still hold frame pointers,
		// so its frames are left to the garbage collector instead.
		rt.Acc().Sp.Release()
	}
	return res, err
}

// fprintf writes formatted output, ignoring errors (report streams).
func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
