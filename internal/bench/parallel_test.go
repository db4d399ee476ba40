package bench

import (
	"errors"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"cables/internal/sim"
	"cables/internal/stats"
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

// jitterTolerance bounds the simulator's inherent run-to-run virtual-time
// jitter: cells whose threads contend dynamically (lock order, page-fault
// interleaving) vary by ~1-3% between identical sequential runs, with or
// without the parallel harness.  The harness must not widen that envelope.
const jitterTolerance = 0.10

// noStalls fails t if a scheduler's stall watchdog added an execution slot
// while t ran: the cell it rescued ran in host order from then on, so its
// results say nothing about reproducibility.
func noStalls(t *testing.T) {
	t.Helper()
	before := sim.Stalls()
	t.Cleanup(func() {
		if n := sim.Stalls() - before; n != 0 {
			t.Errorf("stall watchdog added %d execution slots: a managed task blocked outside Park/Block", n)
		}
	})
}

func relDiff(a, b float64) float64 {
	m := a
	if b > m {
		m = b
	}
	if m == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / m
}

// TestHarnessDeterminism: a 4-worker sweep produces the same artifact as
// the sequential sweep — identical cell structure, error outcomes and
// computation checksums, identical rendered-table shape, and virtual times
// equal up to the simulator's pre-existing run-to-run jitter (which is
// present even when comparing two -jobs 1 runs; the harness itself
// assembles cells into fixed slots and adds no ordering dependence).
func TestHarnessDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig5/table6 grids twice")
	}
	noStalls(t)
	apps, procs := []string{"FFT", "LU"}, []int{1, 4}

	seqData := RunFig5(apps, procs, ScaleTest, nil, CellOptions{}, 1)
	parData := RunFig5(apps, procs, ScaleTest, nil, CellOptions{}, 4)
	compareSweeps(t, apps, procs, seqData, parData)

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
	if !slicesEqual(seq5, par5) {
		t.Errorf("fig5 row structure differs: %v vs %v", seq5, par5)
	}

	seq6 := Table6(io.Discard, ScaleTest, 1).String()
	par6 := Table6(io.Discard, ScaleTest, 4).String()
	if !slicesEqual(shape(seq6), shape(par6)) {
		t.Errorf("table6 row structure differs:\n--- jobs=1\n%s\n--- jobs=4\n%s", seq6, par6)
	}
	compareSpeedupTables(t, seq6, par6)
}

// compareSweeps checks a jobs=1 and a jobs=4 run of the same fig5 grid
// agree: identical error outcomes, checksums and misplaced-page counts,
// parallel times within jitterTolerance.
func compareSweeps(t *testing.T, apps []string, procs []int, seq, par Fig5Data) {
	t.Helper()
	for _, app := range apps {
		for _, p := range procs {
			for _, backend := range []string{BackendGenima, BackendCables} {
				s, q := seq[app][p][backend], par[app][p][backend]
				if (s.Err == nil) != (q.Err == nil) {
					t.Errorf("%s/%s p=%d: error outcome differs: jobs=1 %v, jobs=4 %v",
						app, backend, p, s.Err, q.Err)
					continue
				}
				if s.Err != nil {
					continue
				}
				if s.Res.Checksum != q.Res.Checksum {
					t.Errorf("%s/%s p=%d: checksum differs: %g vs %g",
						app, backend, p, s.Res.Checksum, q.Res.Checksum)
				}
				if s.Res.Misplaced != q.Res.Misplaced {
					t.Errorf("%s/%s p=%d: misplaced pages differ: %d vs %d",
						app, backend, p, s.Res.Misplaced, q.Res.Misplaced)
				}
				if d := relDiff(float64(s.Res.Parallel), float64(q.Res.Parallel)); d > jitterTolerance {
					t.Errorf("%s/%s p=%d: parallel time differs by %.1f%%: %v vs %v",
						app, backend, p, d*100, s.Res.Parallel, q.Res.Parallel)
				}
			}
		}
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compareSpeedupTables checks that every numeric cell of two rendered
// Table 6 instances agrees within the jitter tolerance.
func compareSpeedupTables(t *testing.T, a, b string) {
	t.Helper()
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	if len(la) != len(lb) {
		t.Errorf("table6 line count differs: %d vs %d", len(la), len(lb))
		return
	}
	for i := range la {
		fa, fb := strings.Fields(la[i]), strings.Fields(lb[i])
		if len(fa) != len(fb) {
			t.Errorf("table6 line %d field count differs: %q vs %q", i, la[i], lb[i])
			continue
		}
		for j := range fa {
			va, errA := strconv.ParseFloat(fa[j], 64)
			vb, errB := strconv.ParseFloat(fb[j], 64)
			switch {
			case errA == nil && errB == nil:
				if relDiff(va, vb) > jitterTolerance {
					t.Errorf("table6 cell [%d][%d] differs by >%.0f%%: %v vs %v",
						i, j, jitterTolerance*100, va, vb)
				}
			case fa[j] != fb[j]:
				t.Errorf("table6 cell [%d][%d] differs: %q vs %q", i, j, fa[j], fb[j])
			}
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
		compareSweeps(t, apps, procs, RunFig5(apps, procs, ScaleTest, nil, CellOptions{}, 1),
			RunFig5(apps, procs, ScaleTest, nil, CellOptions{}, 4))
	})
}

// raceSmokeColumn runs one fig5 column at 4 processors, both backends,
// through the 2-worker harness and fails on any cell error or stall: a
// stall adds a second slot, and the race detector only proves the one-slot
// data plane race-free while a cell runs in one.
func raceSmokeColumn(t *testing.T, app string) {
	t.Helper()
	noStalls(t)
	data := RunFig5([]string{app}, []int{4}, ScaleTest, nil, CellOptions{}, 2)
	for _, backend := range []string{BackendGenima, BackendCables} {
		if err := data[app][4][backend].Err; err != nil {
			t.Errorf("%s/%s at 4 procs: %v", app, backend, err)
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
// identical runs agree on every structurally deterministic protocol counter
// and on the computation's checksum.  (Timing-dependent counters like page
// faults may legitimately vary with goroutine interleaving; the structural
// ones may not.)
func TestRepeatRunStableUnderGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	if old < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(old)
	}
	pinned := []stats.Event{
		stats.EvThreadsCreated,
		stats.EvBarriers,
		stats.EvLockAcquires,
		stats.EvNodesAttached,
	}
	type run struct {
		counters []int64
		checksum float64
	}
	do := func() run {
		c := RunCell("FFT", BackendGenima, 4, ScaleTest, nil, CellOptions{}, Attach{})
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		r := run{checksum: c.Res.Checksum}
		for _, e := range pinned {
			r.counters = append(r.counters, c.Ctr.Load(e))
		}
		return r
	}
	a, b := do(), do()
	if a.checksum != b.checksum {
		t.Errorf("checksum differs across identical runs: %g vs %g", a.checksum, b.checksum)
	}
	for i, e := range pinned {
		if a.counters[i] != b.counters[i] {
			t.Errorf("counter %d (event %d) differs across identical runs: %d vs %d",
				i, e, a.counters[i], b.counters[i])
		}
	}
}
