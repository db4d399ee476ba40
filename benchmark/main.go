// Command benchmark is the repository's performance benchmark: it drives the
// real cablesim binary as a child process — the batch CLI and a live
// `cablesim serve` over loopback HTTP — on four workloads, checks every
// output against the goldens, and prints each metric by name.  README.md in
// this directory defines the workloads, the metrics and their bounds, and
// how the layers are expected to move them; BENCHMARK.json at the module
// root records the same names for the acceptance driver.
//
// Usage (from the module root; the benchmark is a module of its own):
//
//	go run -C benchmark . --workload W --seed N --seconds S --trace 0|1
//	go run -C benchmark .                  # every workload, both modes -> out/result.json
//	go run -C benchmark . -aa [-runs 10]   # two sets of runs of the same code, every bound checked
//	go run -C benchmark . -compare a.json b.json
//	go run -C benchmark . -update-golden
//
// One run measures one workload for --seconds (20 in BENCHMARK.json) and prints, as its last line
// of standard output, one JSON object with the keys correct, attempted,
// failed and metrics: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1.  -child-env K=V[,K=V] sets variables in the
// cablesim children only (the README's sensitivity run sets CABLES_SCHED).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// metricDef declares one metric: BENCHMARK.json lists exactly these.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees.  Each is reported by
// every workload.  Failed operations and failed checks are not in this list
// because they are normally zero; they are the attempted/failed/correct
// fields of the result.
//
// A metric has one bound for all workloads, so the noisiest workload sets it.
// On a quiet host every metric's spread over ten runs is under 6 % of its
// median.  But twice in six hours of measuring the host ran 20-100 % slower
// for a quarter of an hour, and a bound is a gate on every later change, so
// the timed metrics keep the widest bound the driver accepts; peak_rss_mb,
// which such an episode does not move, a narrower one.  README.md has the
// numbers, and -compare resolves what the bounds let through.
//
// The tail of sweep_done is not here but per-layer (client.sweep_done_ms_tail):
// in a noisy quarter of an hour its spread over ten runs reached 27 % on the
// warm workload and 41 % on the open one (one stalled second moves the p95 of
// a few hundred arrivals), and a metric that cannot hold its bound between two
// runs of the same code is not a gate.
var endToEnd = []metricDef{
	{"sweep_done_ms_p50", "ms", "lower", 0.25},
	{"cells_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_cell", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// liveLayerDefs are the per-layer metrics taken from the live run: the
// farm's own /metrics and per-cell hostNs, the load generator, the trace.
// A layer a workload does not exercise reads 0 on it.
var liveLayerDefs = []metricDef{
	{"client.sweep_done_ms_p50", "ms", "lower", 0},
	{"client.sweep_done_ms_tail", "ms", "lower", 0},
	{"cli.startup_ms", "ms", "lower", 0},
	{"sim.excluded_apps_fail_share", "ratio", "lower", 0},
	{"bench.excluded_apps_grid_ms", "ms", "lower", 0},
	{"sim.virt_parallel_ms_sum", "ms", "lower", 0},
	{"sim.virt_spread_max", "ratio", "lower", 0},
	{"farm.cold_overhead_share", "ratio", "lower", 0},
	{"farm.first_event_ms", "ms", "lower", 0},
	{"farm.cell_run_ms_mean", "ms", "lower", 0},
	{"farm.queue_wait_ms_mean", "ms", "lower", 0},
	{"farm.http_submit_ms_mean", "ms", "lower", 0},
	{"farm.client_share", "ratio", "lower", 0},
	{"farm.response_kb", "KB", "lower", 0},
	{"farm.hit_ratio", "ratio", "higher", 0},
	{"farm.coalesced", "count", "higher", 0},
	{"farm.evictions", "count", "lower", 0},
	{"farm.pool_util_mean", "ratio", "higher", 0},
	{"farm.warm_rate_decay", "ratio", "higher", 0},
	{"farm.drain_ms", "ms", "lower", 0},
	{"farm.open_p95_ms.half_rate", "ms", "lower", 0},
	{"farm.open_p95_ms.rate", "ms", "lower", 0},
	{"farm.open_p95_ms.double_rate", "ms", "lower", 0},
	{"farm.open_p95_ms.quad_rate", "ms", "lower", 0},
	{"farm.max_rate_in_slo", "1/s", "higher", 0},
	{"budget.flush_share", "ratio", "lower", 0},
	{"budget.fetch_share", "ratio", "lower", 0},
	{"budget.acquire_share", "ratio", "lower", 0},
	{"budget.barrier_share", "ratio", "lower", 0},
	{"budget.wire_share", "ratio", "lower", 0},
	{"budget.unattributed_share", "ratio", "higher", 0},
	{"loadgen.late_ms_p95", "ms", "lower", 0},
	{"loadgen.cpu_share", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// perLayer is every per-layer metric: the probe's unit costs, then the live
// ones.
func perLayer() []metricDef { return append(probeDefs(), liveLayerDefs...) }

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		cfg        = defaultConfig(benchProcs())
		workloadFl = flag.String("workload", "", "workload to run (default: all of them, both modes)")
		seed       = flag.Uint64("seed", 1, "workload seed")
		seconds    = flag.Float64("seconds", 20, "how long one run measures")
		traceFl    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and trace files")
		childEnv   = flag.String("child-env", "", "K=V[,K=V] set in the cablesim children only (sensitivity runs)")
		probe      = flag.Bool("probe", false, "internal: run the in-process layer probes and print them as JSON")
		aa         = flag.Bool("aa", false, "run two sets of runs of the same code and check every bound")
		runs       = flag.Int("runs", 10, "-aa: runs per workload in each set")
		compare    = flag.Bool("compare", false, "compare two result files: -compare parent.json change.json")
		update     = flag.Bool("update-golden", false, "re-record golden/ from this checkout's cablesim")
	)
	flag.Parse()
	if *probe {
		probeMain()
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	e, err := newEnv(*childEnv)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	if *update {
		if err := updateGolden(ctx, e); err != nil {
			fatal(err)
		}
		fmt.Println("golden/ re-recorded; review the diff")
		return
	}
	g, err := loadGolden(e.benchDir)
	if err != nil {
		fatal(err)
	}
	cfg.seed, cfg.seconds, cfg.trace = *seed, *seconds, *traceFl != 0
	r := &runner{e: e, g: g, cfg: cfg}

	switch {
	case *aa:
		if err := runAA(ctx, r, *runs, *childEnv); err != nil {
			fatal(err)
		}
	case *workloadFl == "":
		if err := runAll(ctx, r, *childEnv); err != nil {
			fatal(err)
		}
	default:
		w := findWorkload(*workloadFl)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadFl))
		}
		// The driver gives a run 180 s, except the first in a checkout,
		// which compiles: so compile before the clock starts.  Hung children
		// are cut off by their own deadlines long before; the clock is the
		// backstop that turns any pile-up of them into a prompt non-zero exit.
		if _, err := e.build(ctx); err != nil {
			fatal(err)
		}
		ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
		defer cancel()
		res, err := r.run(ctx, w)
		if err != nil {
			fatal(err)
		}
		// JSON has no NaN or Inf: a ratio over nothing reads 0, as a layer
		// that was not exercised does, and the result line is still printed.
		for name, v := range res.Metrics {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				fmt.Printf("# %s was %v, reported as 0\n", name, v.Value)
				res.Metrics[name] = metricValue{0, v.Unit}
			}
		}
		printResult(w.name, res)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// run measures one workload once and assembles its result: the end-to-end
// metrics with tracing off, or the per-layer metrics from a traced run.
func (r *runner) run(ctx context.Context, w *workload) (*result, error) {
	pre := newMeasurement()
	setup, err := r.measureSetup(ctx, w, pre)
	if err != nil {
		return nil, err
	}
	if r.cfg.trace {
		return r.runTraced(ctx, w, pre)
	}
	m := w.phase(r, ctx, r.cfg.seconds, nil)
	m.merge(pre)
	if w.name == "batch_fig5" {
		r.batchCounters(ctx, m) // outside the timed reps: fig5 prints no checksum
	}
	r.checkTable4(ctx, m)
	res := m.result()
	if len(m.doneMS) == 0 || len(m.reps) == 0 {
		return nil, fmt.Errorf("%s: no operation succeeded (%d attempted, %d failed)", w.name, m.attempted, m.failed)
	}
	tailP, tail := tailPercentile(m.doneMS, w.tail)
	fmt.Printf("# %s: %d sweep_done samples; tail p%.0f = %.4f ms\n", w.name, len(m.doneMS), tailP, tail)
	values := map[string]float64{
		"sweep_done_ms_p50": median(m.doneMS),
		"cells_per_s":       m.cellsPerSecond(),
		"cpu_ms_per_cell":   m.cpuMSPerCell(),
		"peak_rss_mb":       median(m.rss),
		"setup_s":           median(setup),
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}
	return res, nil
}

// result starts a run's result from the phase's operation and check counts.
func (m *measurement) result() *result {
	return &result{Correct: m.checks.failures == 0, Attempted: max(m.attempted, 1), Failed: m.failed,
		Metrics: map[string]metricValue{}}
}

// checkTable4 runs `cablesim table4` against the paper-calibrated pin.
func (r *runner) checkTable4(ctx context.Context, m *measurement) (wall time.Duration) {
	out, u, _, err := r.e.runChildRetry(ctx, 10*time.Second, "table4")
	if err != nil {
		m.checks.fail("cablesim table4: %v", err)
		return 0
	}
	r.g.checkTable4(&m.checks, out)
	return u.wall
}

// measureSetup takes r.cfg.setupReps samples of what it costs to get from
// source to a server that answers: `go build` of cablesim, boot to /readyz
// 200 and, on the warm workload, the prefill that has to precede the first
// hit.  The first sample of a fresh checkout pays the cold compile; the
// median drops it.  A sample whose server died is counted as a failed
// operation in m and taken again.
func (r *runner) measureSetup(ctx context.Context, w *workload, m *measurement) ([]float64, error) {
	var samples []float64
	for len(samples) < r.cfg.setupReps {
		// Without the old binary the go tool has to link again; with it, an
		// up-to-date binary would make the build a no-op.
		if err := os.Remove(r.e.bin); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		build, err := r.e.build(ctx)
		if err != nil {
			return nil, err // nothing can run without the binary
		}
		srv, err := r.e.startServer(ctx)
		if err == nil {
			total := build + srv.bootDur
			if w.name == "farm_warm_hits" {
				c := newFarmClient(srv.base, r.cfg.clients)
				start := time.Now()
				_, err = r.prefill(ctx, c, newMeasurement())
				total += time.Since(start)
				c.close()
			}
			if _, stopErr := srv.stop(); err == nil {
				err = stopErr
			}
			if err == nil {
				samples = append(samples, total.Seconds())
				continue
			}
		}
		fmt.Printf("# set-up sample failed: %v\n", err)
		m.attempted++
		if m.failed++; m.failed >= maxFailedReps {
			return nil, fmt.Errorf("set-up failed %d times, last: %w", m.failed, err)
		}
	}
	return samples, nil
}

// runTraced is the --trace 1 run: the probe child's unit costs, then the
// workload for half the time box with client-side spans off and half with
// them on (alternating quarters), the farm's /metrics read at phase
// boundaries.
func (r *runner) runTraced(ctx context.Context, w *workload, total *measurement) (*result, error) {
	rec := &recorder{}
	layer := map[string]float64{}
	for _, d := range perLayer() {
		layer[d.name] = 0
	}

	probe, err := r.runProbeChild(ctx, total)
	if err != nil {
		fmt.Printf("# probe: %v\n", err)
	} else {
		rec.addAll(probe.Spans)
		for k, v := range probe.Metrics {
			layer[k] = v
		}
		for _, e := range probe.Errors {
			fmt.Printf("# probe error: %s\n", e)
			total.attempted++
			total.failed++
		}
	}

	var startup []float64
	for i := 0; i < 5; i++ {
		startup = append(startup, ms(r.checkTable4(ctx, total)))
	}
	layer["cli.startup_ms"] = median(startup)

	// Spans off and on alternate in quarter time boxes, so that the host
	// drifting during the run does not read as tracing overhead.
	plain, traced := newMeasurement(), newMeasurement()
	for i := 0; i < 2; i++ {
		plain.merge(w.phase(r, ctx, r.cfg.seconds/4, nil))
		traced.merge(w.phase(r, ctx, r.cfg.seconds/4, rec))
	}
	if p := median(plain.doneMS); p > 0 {
		layer["trace.overhead_ratio"] = median(traced.doneMS) / p
	}
	total.merge(plain)
	total.merge(traced)
	tailP, tail := tailPercentile(total.doneMS, w.tail)
	fmt.Printf("# %s: %d sweep_done samples; tail is p%.0f\n", w.name, len(total.doneMS), tailP)
	layer["client.sweep_done_ms_p50"] = median(total.doneMS)
	layer["client.sweep_done_ms_tail"] = tail
	layer["sim.virt_parallel_ms_sum"], layer["sim.virt_spread_max"] = total.virtSummary()

	r.crashCanary(ctx, layer)
	switch w.name {
	case "batch_fig5":
		r.batchCounters(ctx, total)
	case "farm_mixed_open":
		// The rate sweep: the same schedule generator at half, twice and
		// four times the recorded rate, each on a fresh server.  Twice the
		// rate still fits two workers; four times does not.  Half a time
		// box each gives few samples, so these p95s are indications, not
		// records.
		best := 0.0
		for _, step := range []struct {
			name   string
			factor float64
		}{{"half_rate", 0.5}, {"rate", 1}, {"double_rate", 2}, {"quad_rate", 4}} {
			m := traced
			if step.factor != 1 {
				m = r.openAtRate(ctx, r.cfg.openRate*step.factor, r.cfg.seconds/2, nil)
				total.attempted += m.attempted
				total.failed += m.failed
				total.checks.failures += m.checks.failures
			}
			layer["farm.open_p95_ms."+step.name] = percentile(m.doneMS, 95)
			if m.inSLO() {
				best = max(best, r.cfg.openRate*step.factor)
			}
		}
		layer["farm.max_rate_in_slo"] = best
	}

	for k, v := range total.layer {
		layer[k] = mean(v)
	}
	budget(layer, total)

	res := total.result()
	for _, d := range perLayer() {
		res.Metrics[d.name] = metricValue{layer[d.name], d.unit}
	}
	path := filepath.Join(r.e.outDir, "trace-"+w.name+".json")
	if err := rec.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("# trace written to %s\n", path)
	return res, nil
}

// runProbeChild re-executes this binary as the probe child under a
// deadline, rerunning it at most twice if it dies.
func (r *runner) runProbeChild(ctx context.Context, m *measurement) (*probeReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var lastErr error
	for try := 0; try < 3; try++ {
		m.attempted++
		ctx, cancel := context.WithTimeout(ctx, probeDeadline)
		cmd := exec.CommandContext(ctx, self, "-probe")
		cmd.Env = r.e.childEnv
		stderr := &tailBuffer{max: 16 << 10}
		cmd.Stderr = stderr
		out, err := cmd.Output()
		cancel()
		if err == nil {
			var rep probeReport
			if err = json.Unmarshal(out, &rep); err == nil {
				return &rep, nil
			}
		}
		m.failed++
		r.e.saveCrash("probe", stderr.Bytes())
		lastErr = err
	}
	return nil, fmt.Errorf("probe child failed three times: %w", lastErr)
}

// batchCounters runs `cablesim counters` over the paper grid once: it
// verifies every cell's checksum at the batch workload's scale (fig5 itself
// prints none) and yields the event counts the budget estimate prices.
func (r *runner) batchCounters(ctx context.Context, m *measurement) {
	out, u, crashed, err := r.e.runChildRetry(ctx, gridDeadline, gridArgs("counters", r.cfg.scale, batchApps)...)
	m.attempted += crashed
	m.failed += crashed
	if err != nil {
		fmt.Printf("# counters run failed: %v\n", err)
		return
	}
	m.attempted++
	cells, err := parseCounters(out)
	if err != nil {
		m.checks.fail("%v", err)
		return
	}
	if len(cells) != len(batchApps)*len(procList)*len(backends) {
		m.checks.fail("counters printed %d cells, want the whole grid", len(cells))
	}
	bad := 0
	for i := range cells {
		if !r.g.checkCell(&m.checks, r.cfg.scale, cells[i].event()) {
			bad++
		}
		for k, v := range cells[i].counters {
			m.simEvents[k] += v
		}
	}
	if bad > 0 {
		m.failed++
	}
	m.simHost += u.cpu
}

// crashCanary keeps the simulator's known intermittent failure in the record
// without letting it fail an operation: it runs `cablesim counters` over the
// three applications the workloads leave out, canaryRuns times as a
// supervised child, and reports the share of those runs that crashed, hung or
// computed a wrong answer, beside what a good run of that grid costs.  No
// golden is needed: an application's checksum is the same on every cell, and
// its single-processor cell cannot race.  It gives up after maxFailedReps bad
// runs, so that hangs cannot use up the run.
func (r *runner) crashCanary(ctx context.Context, layer map[string]float64) {
	const canaryRuns = 10
	want := len(canaryApps) * len(procList) * len(backends)
	runs, bad := 0, 0
	var wall []float64
	for runs < canaryRuns && bad < maxFailedReps {
		runs++
		out, u, err := r.e.runChild(ctx, canaryDeadline, gridArgs("counters", r.cfg.scale, canaryApps)...)
		if err != nil {
			bad++
			continue
		}
		cells, err := parseCounters(out)
		wrong := err != nil || len(cells) != want
		first := map[string]float64{} // app -> checksum of its first cell, genima on one processor
		for _, c := range cells {
			ref, seen := first[c.app]
			if !seen {
				first[c.app], ref = c.checksum, c.checksum
			}
			if c.failed || math.Abs(c.checksum-ref) > checksumTolerance*math.Abs(ref) {
				fmt.Printf("# canary: %s checksum %v, want %v\n", cellID(c.app, c.backend, c.procs), c.checksum, ref)
				wrong = true
			}
		}
		if wrong {
			bad++
			continue
		}
		wall = append(wall, ms(u.wall))
	}
	layer["sim.excluded_apps_fail_share"] = float64(bad) / float64(runs)
	layer["bench.excluded_apps_grid_ms"] = median(wall)
}

// budget turns the simulated cells' event counts and the probe's unit costs
// into the budget.* estimates: the share of those cells' host time each
// priced event kind would account for if every event cost what the probe
// measured.  They are estimates: the unit costs are taken on idle, warm
// structures.
func budget(layer map[string]float64, m *measurement) {
	host := float64(m.simHost)
	if host == 0 {
		return
	}
	count := func(event string) float64 { return float64(m.simEvents[event]) }
	shares := map[string]float64{
		"budget.flush_share":   count("diffs") * layer["genima.flush_us"] * 1e3 / 8,
		"budget.fetch_share":   count("remoteFaults") * layer["genima.fetch_us"] * 1e3,
		"budget.acquire_share": count("lockAcquires") * layer["genima.acquire_us"] * 1e3,
		"budget.barrier_share": count("barriers") * layer["sim.barrier_round_us"] * 1e3,
		"budget.wire_share":    count("wireOps") * layer["wire.do_ns"],
	}
	rest := 1.0
	for k, ns := range shares {
		layer[k] = ns / host
		rest -= ns / host
	}
	layer["budget.unattributed_share"] = max(rest, 0)
}

// printResult prints every metric by name with its unit.
func printResult(workload string, res *result) {
	fmt.Printf("# %s: correct=%v attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	for _, name := range sortedKeys(res.Metrics) {
		v := res.Metrics[name]
		fmt.Printf("%-34s %14.4f %s\n", name, v.Value, v.Unit)
	}
}
