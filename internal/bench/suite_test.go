package bench

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"cables/internal/apps/appapi"
	"cables/internal/sim"
)

// mustRun runs one default-configured cell with no observers, failing the
// test if the cell errors.
func mustRun(t *testing.T, app, backend string, procs int, scale Scale, costs *sim.Costs) appapi.Result {
	t.Helper()
	r := RunCell(app, backend, procs, scale, costs, CellOptions{}, Attach{})
	if r.Err != nil {
		t.Fatalf("%s/%s p=%d: %v", app, backend, procs, r.Err)
	}
	return r.Res
}

// TestAppsAgreeAcrossBackends runs every SPLASH-2 port on both the base
// system and CableS at the same processor count and requires identical
// results — the end-to-end check that both memory systems are coherent.
func TestAppsAgreeAcrossBackends(t *testing.T) {
	for _, app := range AppNames {
		app := app
		t.Run(app, func(t *testing.T) {
			g := mustRun(t, app, BackendGenima, 4, ScaleTest, nil)
			c := mustRun(t, app, BackendCables, 4, ScaleTest, nil)
			if g.Checksum == 0 || c.Checksum == 0 {
				t.Fatalf("zero checksum: genima=%g cables=%g", g.Checksum, c.Checksum)
			}
			if diff := math.Abs(g.Checksum-c.Checksum) / math.Abs(g.Checksum); diff > 1e-9 {
				t.Errorf("checksum mismatch: genima=%g cables=%g (rel %g)",
					g.Checksum, c.Checksum, diff)
			}
			if g.Parallel <= 0 || c.Parallel <= 0 {
				t.Errorf("non-positive parallel section: genima=%v cables=%v",
					g.Parallel, c.Parallel)
			}
			if g.Misplaced != 0 {
				t.Errorf("base system misplaced %d pages; its placement is the reference",
					g.Misplaced)
			}
			t.Logf("genima: %v", g)
			t.Logf("cables: %v", c)
		})
	}
}

// TestComputeAppsSpeedUp checks that compute-bound applications actually
// get faster with more processors on the base system.
func TestComputeAppsSpeedUp(t *testing.T) {
	for _, app := range []string{"LU", "RAYTRACE"} {
		app := app
		t.Run(app, func(t *testing.T) {
			seq := mustRun(t, app, BackendGenima, 1, ScaleTest, nil)
			par := mustRun(t, app, BackendGenima, 8, ScaleTest, nil)
			sp := float64(seq.Parallel) / float64(par.Parallel)
			if sp < 1.5 {
				t.Errorf("speedup at 8 procs: got %.2f, want >= 1.5 (seq=%v par=%v)",
					sp, seq.Parallel, par.Parallel)
			}
			t.Logf("%s speedup at 8 procs: %.2f", app, sp)
		})
	}
}

// TestWorkloadPanicIsPanicError: a workload that panics comes back as a
// *PanicError, with the message batch tables print; an unknown application
// is an ordinary error.
func TestWorkloadPanicIsPanicError(t *testing.T) {
	_, err := runAppOn(nil, "FFT", ScaleTest) // a nil runtime panics in the workload
	var pe *PanicError
	if !errors.As(err, &pe) || pe.App != "FFT" {
		t.Fatalf("nil-runtime FFT: err %v, want a *PanicError for FFT", err)
	}
	if want := fmt.Sprintf("bench: FFT panicked: %v", pe.Value); err.Error() != want {
		t.Errorf("panic error text %q, want %q", err.Error(), want)
	}
	if _, err := runAppOn(nil, "NOPE", ScaleTest); err == nil || errors.As(err, &pe) {
		t.Errorf("unknown app: err %v, want a non-panic error", err)
	}
}

// TestSweepKeepsCellOnPanic: Grid orders its cells apps, then procs, then
// genima before cables; and a cell that panics (an unknown backend panics
// in NewRuntimeOpts) keeps its Cell and reports the panic as its Err,
// while its neighbours complete.
func TestSweepKeepsCellOnPanic(t *testing.T) {
	var labels []string
	for _, c := range Grid([]string{"LU", "FFT"}, []int{4, 1}, CellOptions{}) {
		labels = append(labels, c.Label())
	}
	want := []string{
		"LU/genima p=4", "LU/cables p=4", "LU/genima p=1", "LU/cables p=1",
		"FFT/genima p=4", "FFT/cables p=4", "FFT/genima p=1", "FFT/cables p=1",
	}
	if !slices.Equal(labels, want) {
		t.Errorf("grid order:\n got %v\nwant %v", labels, want)
	}

	cells := []Cell{
		{App: "FFT", Backend: BackendGenima, Procs: 1},
		{App: "FFT", Backend: "nope", Procs: 1},
		{App: "FFT", Backend: BackendCables, Procs: 1},
	}
	runs := Sweep(cells, ScaleTest, nil, Attach{}, 2)
	if len(runs) != len(cells) {
		t.Fatalf("swept %d runs, want %d", len(runs), len(cells))
	}
	if r := runs[1]; r.Err == nil || r.Label() != "FFT/nope p=1" {
		t.Errorf("panicked cell: label %q err %v, want FFT/nope p=1 with an error", r.Label(), r.Err)
	}
	for _, i := range []int{0, 2} {
		if r := runs[i]; r.Err != nil || r.Label() != cells[i].Label() || r.Res.Parallel <= 0 {
			t.Errorf("neighbour %d: label %q err %v parallel %v", i, r.Label(), r.Err, r.Res.Parallel)
		}
	}
}
