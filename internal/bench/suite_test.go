package bench

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"cables/internal/apps/appapi"
)

// testOpts configures a default cell at test scale.
var testOpts = CellOptions{Scale: ScaleTest}

// mustRun runs one cell with no observers, failing the test if the cell
// errors.
func mustRun(t *testing.T, app, backend string, procs int, o CellOptions) appapi.Result {
	t.Helper()
	r := RunCell(Cell{App: app, Backend: backend, Procs: procs, Opts: o}, Attach{})
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
			g := mustRun(t, app, BackendGenima, 4, testOpts)
			c := mustRun(t, app, BackendCables, 4, testOpts)
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
			seq := mustRun(t, app, BackendGenima, 1, testOpts)
			par := mustRun(t, app, BackendGenima, 8, testOpts)
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
// in newRuntime) keeps its Cell and reports the panic as its Err,
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
		{App: "FFT", Backend: BackendGenima, Procs: 1, Opts: testOpts},
		{App: "FFT", Backend: "nope", Procs: 1, Opts: testOpts},
		{App: "FFT", Backend: BackendCables, Procs: 1, Opts: testOpts},
	}
	runs := Sweep(cells, Attach{}, 2)
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

// TestCheckSweep: the sweep check both front ends share accepts the
// paper's inputs, folds the default granularity to 0, and refuses an
// unknown application, a processor count outside [1, maxProcs] and a
// granularity that is not a power of two (memsys would panic on it).
func TestCheckSweep(t *testing.T) {
	for _, tc := range []struct {
		apps     []string
		procs    []int
		gran     int
		wantGran int
		wantErr  string
	}{
		{nil, nil, 0, 0, ""},
		{AppNames, ProcCounts, 4096, 4096, ""},
		{[]string{"FFT"}, []int{1, maxProcs}, 64 << 10, 0, ""},
		{[]string{"FFT", "BOGUS"}, nil, 0, 0, `unknown application "BOGUS"`},
		{nil, []int{0}, 0, 0, "processor count 0 out of range"},
		{nil, []int{maxProcs + 1}, 0, 0, "processor count 65 out of range"},
		{nil, nil, 1000, 0, "mapping granularity 1000 is not a power of two"},
		{nil, nil, -4096, 0, "mapping granularity -4096 is not a power of two"},
		{nil, nil, 1024, 0, "mapping granularity 1024 is below the 4096-byte page"},
		{nil, nil, 1, 0, "mapping granularity 1 is below the 4096-byte page"},
	} {
		gran, err := CheckSweep(tc.apps, tc.procs, tc.gran)
		if tc.wantErr == "" && (err != nil || gran != tc.wantGran) {
			t.Errorf("CheckSweep(%v, %v, %d) = %d, %v; want %d, nil", tc.apps, tc.procs, tc.gran, gran, err, tc.wantGran)
		}
		if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("CheckSweep(%v, %v, %d): error %v, want %q", tc.apps, tc.procs, tc.gran, err, tc.wantErr)
		}
	}
}
