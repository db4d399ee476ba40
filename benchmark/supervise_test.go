package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeCablesim installs a shell script as the cablesim binary of a fresh
// env, so the supervision paths can be driven without waiting for the real
// simulator to crash.  script is the body of a `case "$1" in` statement.
func fakeCablesim(t *testing.T, script string) *env {
	t.Helper()
	dir := t.TempDir()
	e := &env{benchDir: dir, rootDir: dir, outDir: dir, bin: filepath.Join(dir, "cablesim"), childEnv: os.Environ()}
	body := "#!/bin/sh\ncase \"$1\" in\n" + script + "\nesac\n"
	if err := os.WriteFile(e.bin, []byte(body), 0o755); err != nil {
		t.Fatal(err)
	}
	return e
}

func crashLogs(t *testing.T, e *env) []string {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(e.outDir, "crash-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return logs
}

// A batch child that panics is a failed operation with its stderr tail
// saved; the rep is rerun, at most twice, and no timing enters the result.
func TestCrashedBatchChildIsCounted(t *testing.T) {
	e := fakeCablesim(t, `fig5) echo "panic: runtime error: invalid memory address" >&2; exit 2;;`)
	r := &runner{e: e, cfg: defaultConfig(1)}
	m := r.batchPhase(context.Background(), 0.01, nil)
	if m.attempted != maxFailedReps || m.failed != maxFailedReps {
		t.Errorf("attempted %d, failed %d; want %d of each", m.attempted, m.failed, maxFailedReps)
	}
	if len(m.doneMS) != 0 || len(m.reps) != 0 || len(m.rss) != 0 {
		t.Errorf("a failed rep left timings behind: %v %v %v", m.doneMS, m.reps, m.rss)
	}
	logs := crashLogs(t, e)
	if len(logs) != maxFailedReps {
		t.Fatalf("%d crash logs, want %d", len(logs), maxFailedReps)
	}
	if b, _ := os.ReadFile(logs[0]); !strings.Contains(string(b), "invalid memory address") {
		t.Errorf("crash log lacks the child's stderr: %q", b)
	}
}

// A child that hangs is cut off at its deadline and reported as a timeout.
func TestHungChildIsCutOff(t *testing.T) {
	e := fakeCablesim(t, `counters) exec sleep 60;;`)
	start := time.Now()
	_, _, err := e.runChild(context.Background(), 100*time.Millisecond, "counters")
	if err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Errorf("err = %v, want a timeout", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("the hung child held the harness for %v", d)
	}
	if len(crashLogs(t, e)) != 1 {
		t.Errorf("want one crash log for the hung child")
	}
}

// A server that dies while booting fails its rep; the phase reruns it and
// gives up after maxFailedReps.
func TestDeadServerFailsTheRep(t *testing.T) {
	e := fakeCablesim(t, `serve) echo "fatal error: all goroutines are asleep" >&2; exit 2;;`)
	r := &runner{e: e, cfg: defaultConfig(1)}
	m := r.coldPhase(context.Background(), 0.01, nil)
	if m.attempted != maxFailedReps || m.failed != maxFailedReps || len(m.doneMS) != 0 {
		t.Errorf("attempted %d, failed %d, %d timings; want %d, %d, 0", m.attempted, m.failed, len(m.doneMS), maxFailedReps, maxFailedReps)
	}
	if len(crashLogs(t, e)) != maxFailedReps {
		t.Errorf("%d crash logs, want %d", len(crashLogs(t, e)), maxFailedReps)
	}
}

// cannedCounters is `cablesim counters` output over the canary's grid with
// every checksum right, except that wrongAt (if not empty) computes another.
func cannedCounters(wrongAt string) string {
	var b strings.Builder
	for _, app := range canaryApps {
		for _, p := range procList {
			for _, backend := range backends {
				sum := 735901.3396383107 + float64(p)*1e-10 // the last digits follow the summation order
				if cellID(app, backend, p) == wrongAt {
					sum = 735615.2371554105
				}
				fmt.Fprintf(&b, "%s/%s p=%d total=1ms parallel=1ms checksum=%v \n  diffs=1\n", app, backend, p, sum)
			}
		}
	}
	return b.String()
}

// The crash canary counts a run with a wrong checksum as a bad one, and a
// clean grid as a good one whose wall time it reports.
func TestCrashCanary(t *testing.T) {
	for _, c := range []struct {
		wrongAt string
		share   float64
	}{{"", 0}, {"WATER-SPATIAL/cables/32", 1}} {
		e := fakeCablesim(t, "counters) cat <<'EOF'\n"+cannedCounters(c.wrongAt)+"EOF\n;;")
		r := &runner{e: e, cfg: defaultConfig(1)}
		layer := map[string]float64{}
		r.crashCanary(context.Background(), layer)
		if got := layer["sim.excluded_apps_fail_share"]; got != c.share {
			t.Errorf("wrong cell %q: fail share %v, want %v", c.wrongAt, got, c.share)
		}
		if ms := layer["bench.excluded_apps_grid_ms"]; (ms > 0) != (c.share == 0) {
			t.Errorf("wrong cell %q: grid time %v", c.wrongAt, ms)
		}
	}
}

// An open phase whose server dies while booting is run again, at most
// maxFailedReps times in all, and leaves no timing.
func TestOpenPhaseRerunsADeadServer(t *testing.T) {
	e := fakeCablesim(t, `serve) echo "listen tcp: address already in use" >&2; exit 1;;`)
	r := &runner{e: e, cfg: defaultConfig(1)}
	m := r.openPhase(context.Background(), 0.2, nil)
	if m.attempted != maxFailedReps || m.failed != maxFailedReps || len(m.doneMS) != 0 || len(m.reps) != 0 {
		t.Errorf("attempted %d, failed %d, %d timings, %d reps; want %d, %d, 0, 0",
			m.attempted, m.failed, len(m.doneMS), len(m.reps), maxFailedReps, maxFailedReps)
	}
}
