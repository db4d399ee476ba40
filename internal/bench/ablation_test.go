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
	data := RunFig5([]string{"FFT"}, procs, ScaleTest, nil, CellOptions{}, 1)
	f5 := Fig5(io.Discard, data, procs).String()
	if !strings.Contains(f5, "FFT") || !strings.Contains(f5, "genima") ||
		!strings.Contains(f5, "cables") {
		t.Errorf("fig5 table malformed:\n%s", f5)
	}
	f6 := Fig6(io.Discard, data, procs, nil).String()
	if !strings.Contains(f6, "FFT") || !strings.Contains(f6, "%") {
		t.Errorf("fig6 table malformed:\n%s", f6)
	}
}

// TestFig6TitlesItsGranularity: Figure 6's title names the map-unit
// granularity its cells ran at — the default 64 KB, or a -gran override.
func TestFig6TitlesItsGranularity(t *testing.T) {
	costs := sim.DefaultCosts()
	costs.MapGranularity = 4 << 10
	for _, tc := range []struct {
		costs *sim.Costs
		want  string
	}{
		{nil, "(64 KB map-unit first touch)"},
		{costs, "(4 KB map-unit first touch)"},
	} {
		var b strings.Builder
		Fig6(&b, nil, []int{4}, tc.costs)
		if title, _, _ := strings.Cut(b.String(), "\n"); !strings.Contains(title, tc.want) {
			t.Errorf("title %q, want it to contain %q", title, tc.want)
		}
	}
}

// TestGranularityAblationErasesMisplacement: the paper attributes CableS's
// placement overhead entirely to WindowsNT's 64 KB mapping granularity; at
// 4 KB (the planned Linux port) misplacement must vanish.
func TestGranularityAblationErasesMisplacement(t *testing.T) {
	nt := mustRun(t, "LU", BackendCables, 8, ScaleTest, nil)
	if nt.MisplacedPct() < 10 {
		t.Fatalf("precondition: LU at 64KB should misplace pages (got %.1f%%)",
			nt.MisplacedPct())
	}
	costs := sim.DefaultCosts()
	costs.MapGranularity = 4 << 10
	linux := mustRun(t, "LU", BackendCables, 8, ScaleTest, costs)
	if linux.Misplaced != 0 {
		t.Errorf("4KB granularity still misplaces %d pages", linux.Misplaced)
	}
	if linux.Checksum != nt.Checksum {
		t.Errorf("granularity changed the computation: %g vs %g",
			linux.Checksum, nt.Checksum)
	}
}

// TestLinuxProfileRunsApps: the full Linux OS profile (cheaper threads,
// 4 KB units) is a valid configuration end to end.
func TestLinuxProfileRunsApps(t *testing.T) {
	costs := sim.DefaultCosts().LinuxOS()
	res := mustRun(t, "WATER-SPATIAL", BackendCables, 4, ScaleTest, costs)
	if res.Checksum <= 0 || res.Misplaced != 0 {
		t.Errorf("linux profile run: %v", res)
	}
}
