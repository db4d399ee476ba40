package bench

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cables/internal/fault"
	"cables/internal/memsys"
	"cables/internal/profile"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/wire"
)

// spanKey is the part of a profiler span a deterministic run reproduces:
// what ran, on which page/lock/op, and when.
type spanKey struct {
	Kind       profile.SpanKind
	Arg        uint64
	Start, End sim.Time
}

// taskTimeline is one task's complete profiler record: every span and
// every mark, in the order the task recorded them.
type taskTimeline struct {
	ID    int
	Spans []spanKey
	Marks []profile.Mark
}

// timelines projects a profiler's logs onto per-task timelines, ordered by
// task id.
func timelines(prof *profile.Profiler) []taskTimeline {
	var out []taskTimeline
	for _, l := range prof.Logs() {
		tl := taskTimeline{ID: l.Task().ID, Marks: l.Marks()}
		for _, s := range l.Spans() {
			tl.Spans = append(tl.Spans, spanKey{s.Kind, s.Arg, s.Start, s.End})
		}
		out = append(out, tl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// runSequential drives a strictly sequential workload — one runnable task at
// a time (each worker is joined before the next spawns) — so every fault
// decision happens at a host-schedule-independent virtual instant.  The
// parallel SPLASH kernels legitimately jitter their protocol counters across
// runs (see parallel_test.go); this workload does not, which is what lets
// the determinism test demand identical counters and profiler timelines.
func runSequential(t *testing.T, o CellOptions) (map[string]int64, []taskTimeline, sim.Time) {
	t.Helper()
	// The genima backend spreads workers round-robin over the three nodes of
	// a 6-processor run, so workers 1, 2, 4, 5 take remote page faults and
	// flush remote diffs — the operations the send/fetch/notify rules target.
	rt := newRuntime(BackendGenima, 6, 64<<20, nil, o)
	prof := AttachProfiler(rt)
	main := rt.Main()
	acc := rt.Acc()
	a, err := rt.Malloc(main, "seq", 256<<10)
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	// First-touch every page on the master so every worker's accesses are
	// remote-homed.
	for p := 0; p < 64; p++ {
		acc.WriteI64(main, a+memsys.Addr(p*memsys.PageSize), int64(p))
	}
	for w := 0; w < 6; w++ {
		id := rt.Spawn(main, func(task *sim.Task) {
			base := a + memsys.Addr(w*10*memsys.PageSize)
			for p := 0; p < 10; p++ {
				addr := base + memsys.Addr(p*memsys.PageSize)
				rt.Lock(task, 1)
				acc.WriteI64(task, addr, acc.ReadI64(task, addr)+int64(w+p))
				rt.Unlock(task, 1)
			}
			rt.Barrier(task, fmt.Sprintf("seq%d", w), 1)
		})
		rt.Join(main, id)
	}
	end := rt.Finish()
	return rt.Cluster().Ctr.Snapshot(), timelines(prof), end
}

// TestFaultDeterminismPinned is the reproducibility contract of
// internal/fault: the same plan and seed reproduce the identical run —
// every counter and every profiler span and mark — however the host
// schedules it.
func TestFaultDeterminismPinned(t *testing.T) {
	const spec = "send:p=0.3;fetch:p=0.3;notify:p=0.3;detach:node=2,at=3ms"
	plan := fault.MustParsePlan(spec)
	snap1, tl1, end1 := runSequential(t, CellOptions{Plan: plan, Seed: 42})
	snap2, tl2, end2 := runSequential(t, CellOptions{Plan: plan, Seed: 42})
	if !reflect.DeepEqual(snap1, snap2) {
		t.Errorf("counters differ across identical plan+seed runs:\n%v\n%v", snap1, snap2)
	}
	if !reflect.DeepEqual(tl1, tl2) {
		t.Errorf("profiler timelines differ across identical plan+seed runs")
	}
	if len(tl1) == 0 {
		t.Error("profiler recorded no tasks; the pin is vacuous")
	}
	if end1 != end2 {
		t.Errorf("virtual end times differ: %v != %v", end1, end2)
	}
	if snap1["faultsInjected"] == 0 {
		t.Error("plan never fired; the pin is vacuous")
	}
	// A different seed must produce a different run (same plan).
	snap3, _, _ := runSequential(t, CellOptions{Plan: plan, Seed: 43})
	if reflect.DeepEqual(snap1, snap3) {
		t.Error("seed 43 reproduced the seed-42 counters exactly; decisions ignore the seed")
	}
}

// TestFaultsDisabledBitIdentical checks the other half of the contract: a
// cell without a plan (no injector) and a plan whose windows never open
// both charge exactly what the fault-free build charges.
func TestFaultsDisabledBitIdentical(t *testing.T) {
	snapNil, tlNil, endNil := runSequential(t, CellOptions{})
	neverPlan := fault.MustParsePlan("send:p=1,from=9000s;detach:node=2,at=9000s")
	snapOff, tlOff, endOff := runSequential(t, CellOptions{Plan: neverPlan, Seed: 1})
	if !reflect.DeepEqual(snapNil, snapOff) {
		t.Errorf("dormant plan perturbed counters:\n%v\n%v", snapNil, snapOff)
	}
	if !reflect.DeepEqual(tlNil, tlOff) || endNil != endOff {
		t.Errorf("dormant plan perturbed the run: timelines equal %v, end %v/%v",
			reflect.DeepEqual(tlNil, tlOff), endNil, endOff)
	}
	if n := snapOff["faultsInjected"]; n != 0 {
		t.Errorf("dormant plan injected %d faults", n)
	}
	if snapNil["faultsInjected"] != 0 {
		t.Error("fault counters non-zero without faults")
	}
}

// TestDetachCompletesDegraded is the acceptance scenario from the issue: a
// seeded fault plan that detaches one node mid-run must leave FFT and OCEAN
// completing with correct results — DEGRADED cells, never FAILED.
func TestDetachCompletesDegraded(t *testing.T) {
	const spec = "send:p=0.05;detach:node=1,at=2ms"
	plan := fault.MustParsePlan(spec)
	for _, app := range []string{"FFT", "OCEAN"} {
		for _, backend := range []string{BackendGenima, BackendCables} {
			r := RunCell(Cell{App: app, Backend: backend, Procs: 4,
				Opts: CellOptions{Scale: ScaleTest, Plan: plan, Seed: 7}}, Attach{})
			res, ctr := r.Res, r.Ctr
			if r.Err != nil {
				t.Errorf("%s/%s: FAILED under detach plan: %v", app, backend, r.Err)
				continue
			}
			if ctr.Load(stats.EvFaultsInjected) == 0 {
				t.Errorf("%s/%s: plan never fired; not a degradation test", app, backend)
			}
			if ctr.Load(stats.EvNodeDetaches) != 1 {
				t.Errorf("%s/%s: nodeDetaches=%d, want 1", app, backend,
					ctr.Load(stats.EvNodeDetaches))
			}
			if res.Parallel <= 0 {
				t.Errorf("%s/%s: implausible parallel time %v", app, backend, res.Parallel)
			}
		}
	}
}

// TestRunFaultsRendersDegraded checks the table renderer end to end: faulted
// cells read DEGRADED with their time, and nothing reads FAILED.
func TestRunFaultsRendersDegraded(t *testing.T) {
	var b strings.Builder
	plan := fault.MustParsePlan("send:p=0.2;detach:node=1,at=2ms")
	RunFaults(&b, []string{"FFT"}, []int{4}, CellOptions{Scale: ScaleTest, Plan: plan, Seed: 7}, 2, 0)
	out := b.String()
	if strings.Contains(out, "FAILED") {
		t.Errorf("faulted sweep failed a cell:\n%s", out)
	}
	if !strings.Contains(out, "DEGRADED(") {
		t.Errorf("no DEGRADED cell in output:\n%s", out)
	}
	if !strings.Contains(out, "nodeDetaches=1") {
		t.Errorf("per-cell fault counters missing:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("seed %d", 7)) || !strings.Contains(out, plan.String()) {
		t.Errorf("header does not identify plan+seed:\n%s", out)
	}
}

// TestRunFaultsHonorsCellOptions: the fault sweep runs its cells with the
// caller's CellOptions.  Control messages become fault-visible only under
// -contended-sync, so the same send plan must inject more faults with it.
func TestRunFaultsHonorsCellOptions(t *testing.T) {
	plan := fault.MustParsePlan("send:p=0.2")
	injected := func(o CellOptions) int {
		var b strings.Builder
		o.Scale, o.Plan, o.Seed = ScaleTest, plan, 3
		RunFaults(&b, []string{"LU"}, []int{4}, o, 1, 0)
		n := 0
		for _, f := range strings.Fields(b.String()) {
			if v, ok := strings.CutPrefix(f, "faultsInjected="); ok {
				k, err := strconv.Atoi(v)
				if err != nil {
					t.Fatalf("census field %q: %v", f, err)
				}
				n += k
			}
		}
		return n
	}
	plain := injected(CellOptions{})
	contended := injected(CellOptions{Wire: wire.Options{ContendedSync: true}})
	if contended <= plain {
		t.Errorf("send faults injected: %d with -contended-sync, %d without; want more with it", contended, plain)
	}
}
