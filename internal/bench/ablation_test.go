package bench

import (
	"io"
	"strings"
	"testing"

	"cables/internal/sim"
)

// TestFig5AndFig6Formatting: the figure tables carry one row per
// (application, system) with a cell per processor count.
func TestFig5AndFig6Formatting(t *testing.T) {
	procs := []int{1, 4}
	data := RunFig5([]string{"FFT"}, procs, testOpts, 1)
	f5 := Fig5(io.Discard, data, procs).String()
	if !strings.Contains(f5, "FFT") || !strings.Contains(f5, "genima") ||
		!strings.Contains(f5, "cables") {
		t.Errorf("fig5 table malformed:\n%s", f5)
	}
	f6 := Fig6(io.Discard, data, procs).String()
	if !strings.Contains(f6, "FFT") || !strings.Contains(f6, "%") {
		t.Errorf("fig6 table malformed:\n%s", f6)
	}
}

// TestFig6TitlesItsGranularity: Figure 6's title names the map-unit
// granularity its cells ran at — the default 64 KB, or a -gran override.
func TestFig6TitlesItsGranularity(t *testing.T) {
	for _, tc := range []struct {
		runs []CellRun
		want string
	}{
		{nil, "(64 KB map-unit first touch)"},
		{[]CellRun{{Cell: Cell{Opts: CellOptions{Gran: 4 << 10}}}}, "(4 KB map-unit first touch)"},
	} {
		var b strings.Builder
		Fig6(&b, tc.runs, []int{4})
		if title, _, _ := strings.Cut(b.String(), "\n"); !strings.Contains(title, tc.want) {
			t.Errorf("title %q, want it to contain %q", title, tc.want)
		}
	}
}

// TestGranularityAblationErasesMisplacement: the paper attributes CableS's
// placement overhead entirely to WindowsNT's 64 KB mapping granularity; at
// 4 KB (the planned Linux port) misplacement must vanish.
func TestGranularityAblationErasesMisplacement(t *testing.T) {
	nt := mustRun(t, "LU", BackendCables, 8, testOpts)
	if nt.MisplacedPct() < 10 {
		t.Fatalf("precondition: LU at 64KB should misplace pages (got %.1f%%)",
			nt.MisplacedPct())
	}
	linux := mustRun(t, "LU", BackendCables, 8, CellOptions{Scale: ScaleTest, Gran: 4 << 10})
	if linux.Misplaced != 0 {
		t.Errorf("4KB granularity still misplaces %d pages", linux.Misplaced)
	}
	if linux.Checksum != nt.Checksum {
		t.Errorf("granularity changed the computation: %g vs %g",
			linux.Checksum, nt.Checksum)
	}
}

// TestLinuxProfileRunsApps: the full Linux OS profile (cheaper threads,
// 4 KB units) is a valid configuration end to end.  It is an ablation of
// the cost model, not a cell input, so it runs through the unexported
// runner that takes a cost table.
func TestLinuxProfileRunsApps(t *testing.T) {
	r := runCell(Cell{App: "WATER-SPATIAL", Backend: BackendCables, Procs: 4, Opts: testOpts},
		sim.DefaultCosts().LinuxOS(), Attach{})
	if r.Err != nil || r.Res.Checksum <= 0 || r.Res.Misplaced != 0 {
		t.Errorf("linux profile run: %v (err %v)", r.Res, r.Err)
	}
}
