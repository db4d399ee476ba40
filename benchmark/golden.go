package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// The paper's grid: Figure 5's applications and processor counts on both
// systems.  Spelled out here, not imported, because they are inputs the
// benchmark generates, and the goldens pin what the program does with them.
//
// The benchmark uses five of the eight applications.  WATER-SPATIAL,
// WATER-SPAT-FL and RAYTRACE are left out of every workload and of the probe
// because on this commit a run that holds them intermittently computes a
// wrong checksum, crashes the process or hangs it (README, known limits): a
// benchmark needs inputs on which no operation fails.  batchApps is Figure 5
// without them; bulkApps move pages and meet at barriers but take no locks;
// syncApps are the lock and task-queue application that is left and the most
// barrier-bound one.
var (
	batchApps = []string{"FFT", "LU", "OCEAN", "RADIX", "VOLREND"}
	bulkApps  = []string{"FFT", "LU", "OCEAN", "RADIX"}
	syncApps  = []string{"VOLREND", "LU"}
	// canaryApps are the three left out; the traced run's crash canary runs
	// them, outside every workload, to keep their failure rate in the record.
	canaryApps = []string{"WATER-SPATIAL", "WATER-SPAT-FL", "RAYTRACE"}
	procList   = []int{1, 4, 8, 16, 32}
	backends   = []string{"genima", "cables"}
)

// golden is benchmark/golden/checksums.json: what every cell the workloads
// touch must compute.  Checksums depend on (scale, app, backend, procs)
// only — fault plans, seeds and contended sync change timing, not data.
// Virtual times are not pinned because they are not yet deterministic,
// except the single-thread column of Figure 5, which is.
type golden struct {
	// ExpectedFailed lists the app/backend/procs cells that fail by design,
	// exactly as in the paper (OCEAN on the base system at 32 processors
	// exhausts the NIC's region table).
	ExpectedFailed []string `json:"expectedFailed"`
	// Checksums maps scale -> "app/backend/procs" -> checksum.
	Checksums map[string]map[string]float64 `json:"checksums"`
	// Fig5OneProc maps scale -> "app/backend" -> the 1p cell as printed.
	Fig5OneProc map[string]map[string]string `json:"fig5OneProc"`

	table4 []byte
}

// checksumTolerance is the relative error a checksum may have against its
// golden.  The task-queue applications (VOLREND, RAYTRACE) sum in the order
// tasks happen to be taken, so their checksums repeat to about 1e-13, not
// bit for bit; a wrong result differs in the leading digits.
const checksumTolerance = 1e-9

func cellID(app, backend string, procs int) string {
	return app + "/" + backend + "/" + strconv.Itoa(procs)
}

func loadGolden(dir string) (*golden, error) {
	g := &golden{}
	b, err := os.ReadFile(filepath.Join(dir, "golden", "checksums.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, g); err != nil {
		return nil, fmt.Errorf("golden/checksums.json: %w", err)
	}
	if g.table4, err = os.ReadFile(filepath.Join(dir, "golden", "table4.txt")); err != nil {
		return nil, err
	}
	return g, nil
}

func (g *golden) failsByDesign(id string) bool {
	for _, f := range g.ExpectedFailed {
		if f == id {
			return true
		}
	}
	return false
}

// checks accumulates failed correctness checks; the first few are printed.
type checks struct {
	failures int
}

func (c *checks) fail(format string, args ...any) {
	c.failures++
	if c.failures <= 10 {
		fmt.Printf("# CHECK FAILED: "+format+"\n", args...)
	}
}

// checkCell verifies one terminal cell against the goldens and reports
// whether it reached its expected terminal state with the right answer.  A
// wrong answer — a checksum off its golden, a cell that should fail by
// design and did not — is a failed check.  A cell that did not complete (a
// simulator panic the farm isolated, say) is not a wrong answer: it makes
// its operation a failed one, which the caller counts.
func (g *golden) checkCell(c *checks, scale string, ev *cellEvent) (good bool) {
	id := cellID(ev.App, ev.Backend, ev.Procs)
	if g.failsByDesign(id) {
		if ev.Status != "failed" {
			c.fail("%s %s: status %q, want failed (fails by design)", scale, id, ev.Status)
		}
		return ev.Status == "failed"
	}
	want, ok := g.Checksums[scale][id]
	switch {
	case !ok:
		c.fail("%s %s: no golden checksum", scale, id)
	case ev.Status != "done" || ev.Result == nil:
		msg := ""
		if ev.Result != nil {
			msg = ev.Result.Err
		}
		fmt.Printf("# cell %s %s: status %q (%s), want done\n", scale, id, ev.Status, msg)
	case math.Abs(ev.Result.Result.Checksum-want) > checksumTolerance*math.Abs(want):
		c.fail("%s %s: checksum %v, want %v", scale, id, ev.Result.Result.Checksum, want)
	default:
		return true
	}
	return false
}

// checkTable4 compares `cablesim table4` output with the paper-calibrated
// pin: the model-accuracy check.
//
// Every row is compared exactly but one: the "pthreads barrier" row times
// eight threads contending for a mutex, and its grant order — so its total —
// follows host scheduling (1.78-2.26 ms observed); only its presence is
// checked until virtual time is deterministic.
func (g *golden) checkTable4(c *checks, out []byte) {
	got, want := strings.Split(strings.TrimSpace(string(out)), "\n"), strings.Split(strings.TrimSpace(string(g.table4)), "\n")
	if len(got) != len(want) {
		c.fail("cablesim table4 printed %d lines, golden/table4.txt has %d", len(got), len(want))
		return
	}
	for i := range want {
		const loose = "pthreads barrier"
		if got[i] != want[i] && !(strings.HasPrefix(got[i], loose) && strings.HasPrefix(want[i], loose)) {
			c.fail("cablesim table4 differs from golden/table4.txt:\n  got  %s\n  want %s", got[i], want[i])
		}
	}
}

// fig5Row matches one Figure 5 series row: app, system, five cells.
var fig5Row = regexp.MustCompile(`^(\S+)\s+(genima|cables)\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s*$`)

// fig5Cell is one cell of the printed Figure 5 table: a virtual parallel
// time, or FAILED.
type fig5Cell struct {
	app, backend string
	procs        int
	text         string
}

func parseFig5(out []byte) []fig5Cell {
	var cells []fig5Cell
	for _, line := range strings.Split(string(out), "\n") {
		if m := fig5Row.FindStringSubmatch(line); m != nil {
			for i, p := range procList {
				cells = append(cells, fig5Cell{m[1], m[2], p, m[3+i]})
			}
		}
	}
	return cells
}

// checkFig5 verifies the batch output a user reads: every series of the
// grid, every cell a duration except the ones that fail by design, and the
// deterministic 1p column equal to the golden.  It returns the number of
// cells in their expected terminal state.
func (g *golden) checkFig5(c *checks, scale string, cells []fig5Cell) (good int) {
	for _, cell := range cells {
		id := cellID(cell.app, cell.backend, cell.procs)
		want1p := g.Fig5OneProc[scale][cell.app+"/"+cell.backend]
		switch _, err := time.ParseDuration(cell.text); {
		case g.failsByDesign(id) && cell.text != "FAILED":
			c.fail("fig5 %s: %q, want FAILED (fails by design)", id, cell.text)
		case g.failsByDesign(id):
			good++
		case err != nil:
			c.fail("fig5 %s: %q is not a time", id, cell.text)
		case cell.procs == 1 && cell.text != want1p:
			c.fail("fig5 %s: %s, want %s (1p is deterministic)", id, cell.text, want1p)
		default:
			good++
		}
	}
	if want := len(batchApps) * len(backends) * len(procList); len(cells) != want {
		c.fail("fig5 printed %d cells, want %d", len(cells), want)
	}
	return good
}

// countersCell is one block of `cablesim counters` output.
type countersCell struct {
	app, backend string
	procs        int
	failed       bool
	parallel     time.Duration
	checksum     float64
	counters     map[string]int64
}

var (
	countersHead = regexp.MustCompile(`^(\S+)/(genima|cables) p=(\d+) total=\S+ parallel=(\S+) checksum=(\S+) `)
	countersFail = regexp.MustCompile(`^(\S+)/(genima|cables) p=(\d+): FAILED`)
)

// parseCounters reads `cablesim counters` output: per cell a header line
// with the virtual times and checksum, then an indented k=v counter line.
func parseCounters(out []byte) ([]countersCell, error) {
	var cells []countersCell
	for _, line := range strings.Split(string(out), "\n") {
		if m := countersFail.FindStringSubmatch(line); m != nil {
			p, _ := strconv.Atoi(m[3])
			cells = append(cells, countersCell{app: m[1], backend: m[2], procs: p, failed: true})
			continue
		}
		if m := countersHead.FindStringSubmatch(line); m != nil {
			p, _ := strconv.Atoi(m[3])
			par, err := time.ParseDuration(m[4])
			if err != nil {
				return nil, fmt.Errorf("counters: bad parallel time in %q", line)
			}
			sum, err := strconv.ParseFloat(m[5], 64)
			if err != nil {
				return nil, fmt.Errorf("counters: bad checksum in %q", line)
			}
			cells = append(cells, countersCell{app: m[1], backend: m[2], procs: p,
				parallel: par, checksum: sum, counters: map[string]int64{}})
			continue
		}
		if strings.HasPrefix(line, "  ") && len(cells) > 0 && !cells[len(cells)-1].failed {
			for _, kv := range strings.Fields(line) {
				k, v, _ := strings.Cut(kv, "=")
				if n, err := strconv.ParseInt(v, 10, 64); err == nil {
					cells[len(cells)-1].counters[k] = n
				}
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("counters: no cells in output")
	}
	return cells, nil
}

func (cc *countersCell) event() *cellEvent {
	ev := &cellEvent{App: cc.app, Backend: cc.backend, Procs: cc.procs, Status: "done"}
	if cc.failed {
		ev.Status = "failed"
		return ev
	}
	ev.Result = &cellResult{Counters: cc.counters}
	ev.Result.Result.Parallel = int64(cc.parallel)
	ev.Result.Result.Checksum = cc.checksum
	return ev
}

// gridArgs is a batch command (`fig5` or `counters`) over the grid of the
// given applications at a scale.
func gridArgs(cmd, scale string, apps []string) []string {
	ps := make([]string, len(procList))
	for i, p := range procList {
		ps[i] = strconv.Itoa(p)
	}
	return []string{cmd, "-scale", scale, "-apps", strings.Join(apps, ","), "-procs", strings.Join(ps, ",")}
}

// updateGolden records the goldens from the checkout's own cablesim: table4,
// and the checksum of every grid cell plus the Figure 5 1p column at test
// and paper scale.  A cell that fails here is recorded as failing by design,
// so review the diff before committing it.
func updateGolden(ctx context.Context, e *env) error {
	if _, err := e.build(ctx); err != nil {
		return err
	}
	t4, _, _, err := e.runChildRetry(ctx, 10*time.Second, "table4")
	if err != nil {
		return err
	}
	g := &golden{Checksums: map[string]map[string]float64{}, Fig5OneProc: map[string]map[string]string{}}
	failed := map[string]bool{}
	for _, scale := range []string{"test", "paper"} {
		out, _, _, err := e.runChildRetry(ctx, gridDeadline, gridArgs("counters", scale, batchApps)...)
		if err != nil {
			return err
		}
		cells, err := parseCounters(out)
		if err != nil {
			return err
		}
		g.Checksums[scale] = map[string]float64{}
		for _, c := range cells {
			if c.failed {
				failed[cellID(c.app, c.backend, c.procs)] = true
				continue
			}
			g.Checksums[scale][cellID(c.app, c.backend, c.procs)] = c.checksum
		}
		fig, _, _, err := e.runChildRetry(ctx, gridDeadline, gridArgs("fig5", scale, batchApps)...)
		if err != nil {
			return err
		}
		g.Fig5OneProc[scale] = map[string]string{}
		for _, cell := range parseFig5(fig) {
			if cell.procs == 1 {
				g.Fig5OneProc[scale][cell.app+"/"+cell.backend] = cell.text
			}
		}
	}
	g.ExpectedFailed = sortedKeys(failed)
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(e.benchDir, "golden")
	if err := os.WriteFile(filepath.Join(dir, "table4.txt"), t4, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "checksums.json"), append(b, '\n'), 0o644)
}
