package bench

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"cables/internal/profile"
	"cables/internal/sim"
)

// runProfiled runs one default-configured 4-processor test-scale cell with
// a profiler attached, failing the test if the cell errors.
func runProfiled(t *testing.T, app, backend string) CellRun {
	t.Helper()
	r := RunCell(app, backend, 4, ScaleTest, nil, CellOptions{}, Attach{Profiler: true})
	if r.Err != nil {
		t.Fatalf("%s/%s profiled: %v", app, backend, r.Err)
	}
	return r
}

// TestProfilerInvariance pins the invariance rule end to end on both
// backends: attaching the profiler leaves the results — virtual times, the
// computation checksum and the page-placement census — bit-identical.
func TestProfilerInvariance(t *testing.T) {
	for _, backend := range []string{BackendGenima, BackendCables} {
		for _, app := range []string{"FFT", "WATER-SPATIAL"} {
			plain := mustRun(t, app, backend, 4, ScaleTest, nil)
			r := runProfiled(t, app, backend)
			profiled, prof := r.Res, r.Prof
			if plain.Checksum != profiled.Checksum ||
				plain.Parallel != profiled.Parallel ||
				plain.Total != profiled.Total ||
				plain.Misplaced != profiled.Misplaced ||
				plain.Touched != profiled.Touched {
				t.Errorf("%s/%s: profiler changed the result:\nplain:    %+v\nprofiled: %+v",
					app, backend, plain, profiled)
			}
			if len(prof.Logs()) == 0 {
				t.Errorf("%s/%s: profiler adopted no tasks", app, backend)
			}
		}
	}
}

// TestProfileReconciliation pins the accounting invariants on both
// backends: per task, span self costs telescope to exactly the task's own
// category breakdown; per cell, the per-kind roll-up equals the sum over
// tasks; and fault-span time equals the per-page stall total.
func TestProfileReconciliation(t *testing.T) {
	for _, backend := range []string{BackendGenima, BackendCables} {
		logs := runProfiled(t, "FFT", backend).Prof.Logs()
		var faultTime sim.Time
		for _, l := range logs {
			if l.Anomalies() != 0 {
				t.Errorf("%s task %d: %d anomalies on a clean run",
					backend, l.Task().ID, l.Anomalies())
			}
			var selves sim.Breakdown
			for i := range l.Spans() {
				s := &l.Spans()[i]
				self := s.Self()
				selves.AddAll(&self)
				if s.Kind == profile.SpanFault {
					faultTime += s.Dur()
				}
			}
			want := l.Task().Snapshot().Sub(l.Base())
			if selves != want {
				t.Errorf("%s task %d: span selves %v != task breakdown %v",
					backend, l.Task().ID, selves, want)
			}
		}
		r := profile.Build(logs)
		if got := r.KindSum(); got != r.Total {
			t.Errorf("%s: KindSum %v != Total %v", backend, got, r.Total)
		}
		if got := r.FaultTime(); got != faultTime {
			t.Errorf("%s: per-page stall total %v != fault span time %v",
				backend, got, faultTime)
		}
		if r.Kinds[profile.SpanFault].Count == 0 {
			t.Errorf("%s: no fault spans recorded", backend)
		}
		if r.Kinds[profile.SpanBarrier].Count == 0 {
			t.Errorf("%s: no barrier spans recorded", backend)
		}
	}
}

// TestProfileLockAttribution checks that a lock-using application yields a
// lock-contention profile with paired acquires and non-negative splits.
func TestProfileLockAttribution(t *testing.T) {
	for _, backend := range []string{BackendGenima, BackendCables} {
		r := profile.Build(runProfiled(t, "WATER-SPATIAL", backend).Prof.Logs())
		if len(r.Locks) == 0 {
			t.Fatalf("%s: WATER-SPATIAL recorded no lock profile", backend)
		}
		for _, ls := range r.Locks {
			if ls.Acquires == 0 {
				t.Errorf("%s lock %d: zero acquires", backend, ls.Lock)
			}
			if ls.Wait < 0 || ls.Transfer < 0 || ls.HoldBlocked < 0 || ls.Hold < 0 {
				t.Errorf("%s lock %d: negative time in %+v", backend, ls.Lock, ls)
			}
			if ls.Transfer+ls.HoldBlocked > ls.Wait {
				t.Errorf("%s lock %d: split %v+%v exceeds wait %v",
					backend, ls.Lock, ls.Transfer, ls.HoldBlocked, ls.Wait)
			}
			if ls.Contended > ls.Acquires || ls.Remote > ls.Acquires {
				t.Errorf("%s lock %d: counts exceed acquires: %+v", backend, ls.Lock, ls)
			}
		}
	}
}

// TestRunProfileRendersAndExports drives the sweep end to end: the report
// reconciles in the rendered output and the exported timeline is valid
// Chrome trace-viewer JSON with properly nested spans per thread.
func TestRunProfileRendersAndExports(t *testing.T) {
	var b strings.Builder
	cells := RunProfile(&b, []string{"FFT"}, []int{4}, ScaleTest, nil, CellOptions{}, 2, 3)
	out := b.String()
	if strings.Contains(out, "MISMATCH") || strings.Contains(out, "FAILED") {
		t.Fatalf("profiled sweep did not reconcile:\n%s", out)
	}
	for _, want := range []string{"reconcile:", "hot pages", "epochs (", "FFT/genima p=4", "FFT/cables p=4"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	var buf strings.Builder
	if err := profile.WriteTrace(&buf, TraceCells(cells)); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Pid int     `json:"pid"`
			Tid int     `json:"tid"`
			Ts  float64 `json:"ts"`
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("exported trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("exported trace is empty")
	}
	// Spans on one thread must nest: sorted by (start, -end), each event is
	// contained by the enclosing ones on the stack.
	type iv struct{ s, e int64 }
	byThread := map[[2]int][]iv{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if e.Dur < 0 {
			t.Fatalf("negative dur: %+v", e)
		}
		// Timestamps are microseconds; round back to integer nanoseconds so
		// the containment check is exact.
		ns := func(us float64) int64 { return int64(math.Round(us * 1e3)) }
		byThread[[2]int{e.Pid, e.Tid}] = append(byThread[[2]int{e.Pid, e.Tid}], iv{ns(e.Ts), ns(e.Ts + e.Dur)})
	}
	for key, ivs := range byThread {
		var stack []iv
		for _, cur := range ivs { // export order is open order per thread
			for len(stack) > 0 && cur.s >= stack[len(stack)-1].e {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && cur.e > stack[len(stack)-1].e {
				t.Fatalf("thread %v: span [%v,%v] overlaps parent [%v,%v]",
					key, cur.s, cur.e, stack[len(stack)-1].s, stack[len(stack)-1].e)
			}
			stack = append(stack, cur)
		}
	}
}

// TestEpochWindowsCoverRun checks the per-barrier counter windows: labels
// come from the app's barriers and the deltas sum to the final counters.
func TestEpochWindowsCoverRun(t *testing.T) {
	r := runProfiled(t, "FFT", BackendGenima)
	ctr, windows := r.Ctr, r.Prof.Epochs.Windows()
	if len(windows) == 0 {
		t.Fatal("no epoch windows recorded")
	}
	sums := map[string]int64{}
	for _, w := range windows {
		if !strings.Contains(w.Label, "fft") {
			t.Errorf("unexpected epoch label %q", w.Label)
		}
		for k, v := range w.Delta {
			sums[k] += v
		}
	}
	// The last window ends at the final barrier; only counters that cannot
	// grow after it must match exactly, so compare against the snapshot the
	// final mark took: every summed key must be <= the final counter value.
	final := ctr.Snapshot()
	for k, v := range sums {
		if v > final[k] {
			t.Errorf("windows overcount %s: %d > final %d", k, v, final[k])
		}
	}
	if sums["barriers"] == 0 {
		t.Error("windows attribute no barriers")
	}
}
