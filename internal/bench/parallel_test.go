package bench

import (
	"errors"
	"io"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"cables/internal/sim"
)

// TestRunCellsCoversAllCells: every index runs exactly once for any jobs
// value, including jobs > n and jobs <= 0.
func TestRunCellsCoversAllCells(t *testing.T) {
	for _, jobs := range []int{0, 1, 3, 64} {
		const n = 17
		var hits [n]atomic.Int32
		errs := RunCells(jobs, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("jobs=%d: cell %d ran %d times", jobs, i, got)
			}
			if errs[i] != nil {
				t.Errorf("jobs=%d: cell %d unexpected error: %v", jobs, i, errs[i])
			}
		}
	}
}

// TestRunCellsIsolatesPanics: a panicking cell reports an error in its slot
// and every other cell still runs.
func TestRunCellsIsolatesPanics(t *testing.T) {
	boom := errors.New("boom")
	for _, jobs := range []int{1, 4} {
		const n = 9
		var ran [n]atomic.Bool
		errs := RunCells(jobs, n, func(i int) {
			ran[i].Store(true)
			if i == 4 {
				panic(boom)
			}
		})
		for i := 0; i < n; i++ {
			if !ran[i].Load() {
				t.Errorf("jobs=%d: cell %d never ran", jobs, i)
			}
			if (i == 4) != (errs[i] != nil) {
				t.Errorf("jobs=%d: cell %d error = %v", jobs, i, errs[i])
			}
		}
	}
}

// noStalls fails t if a scheduler's stall watchdog added an execution slot
// while t ran: the cell it rescued ran in host order from then on, so its
// results say nothing about reproducibility.
func noStalls(t *testing.T) {
	t.Helper()
	before := sim.Stalls()
	t.Cleanup(func() {
		if n := sim.Stalls() - before; n != 0 {
			t.Errorf("stall watchdog added %d execution slots: a managed task blocked outside Park", n)
		}
	})
}

// TestHarnessDeterminism: a 4-worker sweep produces the same artifact as
// the sequential sweep — identical cell structure, error outcomes,
// checksums and virtual times, and a byte-identical table6 (the harness
// assembles cells into fixed slots, and each cell is a pure function of
// its spec).
func TestHarnessDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig5/table6 grids twice")
	}
	noStalls(t)
	apps, procs := []string{"FFT", "LU"}, []int{1, 4}

	seqData := RunFig5(apps, procs, testOpts, 1)
	parData := RunFig5(apps, procs, testOpts, 4)
	compareSweeps(t, seqData, parData)

	// The rendered tables agree on shape: same header, same row labels.
	shape := func(tab string) []string {
		var labels []string
		for _, line := range strings.Split(tab, "\n") {
			f := strings.Fields(line)
			if len(f) > 0 {
				labels = append(labels, f[0])
			}
		}
		return labels
	}
	seq5 := shape(Fig5(io.Discard, seqData, procs).String())
	par5 := shape(Fig5(io.Discard, parData, procs).String())
	if !slices.Equal(seq5, par5) {
		t.Errorf("fig5 row structure differs: %v vs %v", seq5, par5)
	}

	seq6 := Table6(io.Discard, ScaleTest, 1).String()
	par6 := Table6(io.Discard, ScaleTest, 4).String()
	if seq6 != par6 {
		t.Errorf("table6 differs:\n--- jobs=1\n%s\n--- jobs=4\n%s", seq6, par6)
	}
}

// compareSweeps checks a jobs=1 and a jobs=4 run of the same grid agree
// cell by cell: the same cells in the same order, identical error outcomes,
// and identical results (virtual times, checksums, page placement).
func compareSweeps(t *testing.T, seq, par []CellRun) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("sweeps ran %d and %d cells", len(seq), len(par))
	}
	for i := range seq {
		s, q := seq[i], par[i]
		switch {
		case s.Label() != q.Label():
			t.Errorf("cell %d: %s at jobs=1, %s at jobs=4", i, s.Label(), q.Label())
		case (s.Err == nil) != (q.Err == nil):
			t.Errorf("%s: error outcome differs: jobs=1 %v, jobs=4 %v", s.Label(), s.Err, q.Err)
		case s.Res != q.Res:
			t.Errorf("%s: result differs:\n%+v\n%+v", s.Label(), s.Res, q.Res)
		}
	}
}

// TestSchedulerJobsDeterminism: a jobs=1 sweep and a jobs=4 sweep must
// produce identical structural results — the scheduler's slot discipline
// must not make cell results depend on how many cells share the host.  The
// subtest is named for the event-driven run queue, the one thread manager.
func TestSchedulerJobsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a fig5 column twice")
	}
	t.Run("event", func(t *testing.T) {
		noStalls(t)
		apps, procs := []string{"FFT"}, []int{1, 4}
		compareSweeps(t, RunFig5(apps, procs, testOpts, 1),
			RunFig5(apps, procs, testOpts, 4))
	})
}

// raceSmokeColumn runs one fig5 column at 4 processors, both backends,
// through the 2-worker harness and fails on any cell error or stall: a
// stall adds a second slot, and the race detector only proves the one-slot
// data plane race-free while a cell runs in one.
func raceSmokeColumn(t *testing.T, app string) {
	t.Helper()
	noStalls(t)
	for _, c := range RunFig5([]string{app}, []int{4}, testOpts, 2) {
		if c.Err != nil {
			t.Errorf("%s: %v", c.Label(), c.Err)
		}
	}
}

// TestFig5RaceSmoke is the `make race` data-plane smoke cell: the FFT
// column under the race detector.
func TestFig5RaceSmoke(t *testing.T) {
	raceSmokeColumn(t, "FFT")
}

// TestFig5RaceSmokeEventSched is the `make race` cell for the event-driven
// run queue's wake paths: LU's per-block locks and barriers make its
// threads park and unpark far more often than FFT's.
func TestFig5RaceSmokeEventSched(t *testing.T) {
	raceSmokeColumn(t, "LU")
}

// TestRepeatRunStableUnderGOMAXPROCS: with host parallelism enabled, two
// identical runs agree on every event counter and on the whole result —
// virtual times, checksum and page placement.
func TestRepeatRunStableUnderGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	if old < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(old)
	}
	do := func() CellRun {
		c := RunCell(Cell{App: "FFT", Backend: BackendGenima, Procs: 4, Opts: testOpts}, Attach{})
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		return c
	}
	a, b := do(), do()
	if a.Res != b.Res {
		t.Errorf("result differs across identical runs:\n%+v\n%+v", a.Res, b.Res)
	}
	if sa, sb := a.Ctr.Snapshot(), b.Ctr.Snapshot(); !maps.Equal(sa, sb) {
		t.Errorf("counters differ across identical runs:\n%v\n%v", sa, sb)
	}
}
