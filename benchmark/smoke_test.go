package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// The trace file holds one root span per lane with everything else nested
// inside it in open order — what cmd/traceck checks.
func TestTraceFileNests(t *testing.T) {
	rec := &recorder{}
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Two sweeps on lane 1 recorded child-first, one on lane 2, a probe lane.
	rec.add(pidHarness, 1, "post", at(0), at(2))
	rec.add(pidHarness, 1, "sweep", at(0), at(9))
	rec.add(pidHarness, 1, "stream.wait_first", at(2), at(3))
	rec.add(pidHarness, 1, "stream.rest", at(3), at(9))
	spanSweep(rec, 1, sweepTiming{start: at(10), posted: at(11), first: at(11), done: at(15)})
	spanSweep(rec, 2, sweepTiming{start: at(1), posted: at(4), first: at(6), done: at(30)})
	rec.addAll([]span{{pidProbe, 0, "cell:FFT/cables/8", at(40).UnixNano(), at(50).UnixNano()},
		{pidProbe, 0, "grid", at(40).UnixNano(), at(60).UnixNano()}})
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := rec.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit == "" || len(doc.TraceEvents) != 14+3 {
		t.Fatalf("displayTimeUnit %q, %d events; want 14 spans and 3 lane roots", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	type iv struct{ s, e float64 }
	lanes := map[[2]int][]iv{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Name == "" || e.Dur < 0 {
			t.Errorf("bad event %+v", e)
		}
		k := [2]int{e.Pid, e.Tid}
		lanes[k] = append(lanes[k], iv{e.Ts, e.Ts + e.Dur})
	}
	for k, ivs := range lanes {
		root := ivs[0]
		var stack []iv
		for _, cur := range ivs {
			if cur.s < root.s || cur.e > root.e {
				t.Errorf("lane %v: span [%v,%v] escapes the root [%v,%v]", k, cur.s, cur.e, root.s, root.e)
			}
			for len(stack) > 0 && cur.s >= stack[len(stack)-1].e {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && cur.e > stack[len(stack)-1].e {
				t.Errorf("lane %v: span [%v,%v] straddles its parent's close", k, cur.s, cur.e)
			}
			stack = append(stack, cur)
		}
	}
}

// One short test-scale run of every workload against the real binary.  The
// simulator's intermittent crash is far more frequent at test scale than at
// the recorded paper scale, so a run whose every rep died is retried: the
// point is that the harness survives, counts, and reports well-formed
// results, not that the simulator is stable.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("live test: builds and runs cablesim")
	}
	e, err := newEnv("")
	if err != nil {
		t.Fatal(err)
	}
	e.outDir = t.TempDir()
	e.bin = filepath.Join(e.outDir, "cablesim")
	g, err := loadGolden(e.benchDir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig(2)
	cfg.scale, cfg.seconds, cfg.seed = "test", 0.1, 42
	cfg.warmSweeps, cfg.setupReps = 50, 1
	want := make([]string, len(endToEnd))
	for i, d := range endToEnd {
		want[i] = d.name
	}
	sort.Strings(want)

	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			r := &runner{e: e, g: g, cfg: cfg}
			if w.name == "farm_mixed_open" {
				r.cfg.seconds = 1.5 // thirty arrivals
			}
			var res *result
			var err error
			for try := 0; try < 4; try++ {
				if res, err = r.run(context.Background(), w); err == nil {
					break
				}
				t.Logf("try %d: %v", try, err)
			}
			if err != nil {
				t.Fatalf("no run succeeded: %v", err)
			}
			if !res.Correct {
				t.Errorf("a correctness check failed")
			}
			if res.Attempted < 1 || res.Failed > res.Attempted {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			got := sortedKeys(res.Metrics)
			if len(got) != len(want) {
				t.Fatalf("emitted %v, want %v", got, want)
			}
			for i, name := range got {
				if name != want[i] {
					t.Errorf("emitted %q, want %q", name, want[i])
				}
				if v := res.Metrics[name].Value; !(v > 0) {
					t.Errorf("%s = %v, want a positive number", name, v)
				}
			}
		})
	}
}
