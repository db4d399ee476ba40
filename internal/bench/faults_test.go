package bench

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cables/internal/fault"
	"cables/internal/memsys"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/trace"
	"cables/internal/wire"
)

// runSequential drives a strictly sequential workload — one runnable task at
// a time (each worker is joined before the next spawns) — so every fault
// decision happens at a host-schedule-independent virtual instant.  The
// parallel SPLASH kernels legitimately jitter their protocol counters across
// runs (see parallel_test.go); this workload does not, which is what lets
// the determinism test demand bit-identical counters and traces.
func runSequential(t *testing.T, inj *fault.Injector) (map[string]int64, uint64, sim.Time) {
	t.Helper()
	// The genima backend spreads workers round-robin over the three nodes of
	// a 6-processor run, so workers 1, 2, 4, 5 take remote page faults and
	// flush remote diffs — the operations the send/fetch/notify rules target.
	rt := NewRuntimeOpts(BackendGenima, 6, 64<<20, nil, CellOptions{Fault: inj})
	ring := trace.NewRing(1 << 14)
	if p := protocolOf(rt); p != nil {
		p.Trace = ring
	}
	if inj != nil {
		inj.BindTrace(ring)
	}
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
	if ring.Dropped() != 0 {
		t.Fatalf("trace ring dropped %d events; grow it or the checksum is partial", ring.Dropped())
	}
	return rt.Cluster().Ctr.Snapshot(), ring.Checksum(), end
}

// TestFaultDeterminismPinned is the reproducibility contract of
// internal/fault: the same plan and seed reproduce the identical run —
// every counter and every trace event — however the host schedules it.
func TestFaultDeterminismPinned(t *testing.T) {
	const spec = "send:p=0.3;fetch:p=0.3;notify:p=0.3;detach:node=2,at=3ms"
	plan := fault.MustParsePlan(spec)
	snap1, sum1, end1 := runSequential(t, fault.New(plan, 42))
	snap2, sum2, end2 := runSequential(t, fault.New(plan, 42))
	if !reflect.DeepEqual(snap1, snap2) {
		t.Errorf("counters differ across identical plan+seed runs:\n%v\n%v", snap1, snap2)
	}
	if sum1 != sum2 {
		t.Errorf("trace checksums differ: %#x != %#x", sum1, sum2)
	}
	if end1 != end2 {
		t.Errorf("virtual end times differ: %v != %v", end1, end2)
	}
	if snap1["faultsInjected"] == 0 {
		t.Error("plan never fired; the pin is vacuous")
	}
	// A different seed must produce a different run (same plan).
	snap3, _, _ := runSequential(t, fault.New(plan, 43))
	if reflect.DeepEqual(snap1, snap3) {
		t.Error("seed 43 reproduced the seed-42 counters exactly; decisions ignore the seed")
	}
}

// TestFaultsDisabledBitIdentical checks the other half of the contract: a
// nil injector and a plan whose windows never open both charge exactly what
// the fault-free build charges.
func TestFaultsDisabledBitIdentical(t *testing.T) {
	snapNil, sumNil, endNil := runSequential(t, nil)
	neverPlan := fault.MustParsePlan("send:p=1,from=9000s;detach:node=2,at=9000s")
	inj := fault.New(neverPlan, 1)
	snapOff, sumOff, endOff := runSequential(t, inj)
	if !reflect.DeepEqual(snapNil, snapOff) {
		t.Errorf("dormant plan perturbed counters:\n%v\n%v", snapNil, snapOff)
	}
	if sumNil != sumOff || endNil != endOff {
		t.Errorf("dormant plan perturbed the run: checksum %#x/%#x end %v/%v",
			sumNil, sumOff, endNil, endOff)
	}
	if inj.Injected() != 0 {
		t.Errorf("dormant plan injected %d faults", inj.Injected())
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
			inj := fault.New(plan, 7)
			r := RunCell(app, backend, 4, ScaleTest, nil, CellOptions{Fault: inj}, Attach{})
			res, ctr := r.Res, r.Ctr
			if r.Err != nil {
				t.Errorf("%s/%s: FAILED under detach plan: %v", app, backend, r.Err)
				continue
			}
			if inj.Injected() == 0 {
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
	RunFaults(&b, plan, 7, []string{"FFT"}, []int{4}, ScaleTest, nil, CellOptions{}, 2, 0)
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
	if !strings.Contains(out, "dropped=") {
		t.Errorf("census line does not surface ring truncation:\n%s", out)
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
		RunFaults(&b, plan, 3, []string{"LU"}, []int{4}, ScaleTest, nil, o, 1, 0)
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
