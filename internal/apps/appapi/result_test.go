package appapi_test

import (
	"strings"
	"testing"

	"cables/internal/apps/appapi"
	"cables/internal/m4"
	"cables/internal/sim"
)

func TestSectionTracksExtremes(t *testing.T) {
	var sec appapi.Section
	mk := func(at sim.Time) *sim.Task {
		task := sim.NewTask(1, 0, sim.DefaultCosts())
		task.SetNow(at)
		return task
	}
	sec.Enter(mk(5 * sim.Millisecond))
	sec.Enter(mk(3 * sim.Millisecond)) // earlier enter must not win
	sec.Leave(mk(20 * sim.Millisecond))
	sec.Leave(mk(12 * sim.Millisecond)) // earlier leave must not win
	if got := sec.Duration(); got != 15*sim.Millisecond {
		t.Errorf("duration: %v", got)
	}
}

func TestResultFormatting(t *testing.T) {
	r := appapi.Result{
		App: "FFT", Backend: "cables", Procs: 8,
		Total: 2 * sim.Second, Parallel: sim.Second,
		Checksum: 42, Misplaced: 5, Touched: 50,
	}
	if r.MisplacedPct() != 10 {
		t.Errorf("pct: %v", r.MisplacedPct())
	}
	s := r.String()
	for _, want := range []string{"FFT", "cables", "p=8", "10.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("result string missing %q: %s", want, s)
		}
	}
	if (appapi.Result{}).MisplacedPct() != 0 {
		t.Error("zero-result pct")
	}
}

func TestRunWorkersRunsEachProcOnce(t *testing.T) {
	rt := m4.New(m4.Config{Procs: 6, ProcsPerNode: 2, ArenaBytes: 8 << 20})
	seen := map[int]int{} // the workers run one at a time in the cell's slot
	appapi.RunWorkers(rt, 6, func(task *sim.Task, p int) { seen[p]++ })
	for p := 0; p < 6; p++ {
		if seen[p] != 1 {
			t.Errorf("proc %d ran %d times", p, seen[p])
		}
	}
	if appapi.BackendName(rt) != "genima" {
		t.Error("backend name")
	}
}
