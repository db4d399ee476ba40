package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// workload describes one traffic mix.  why is recorded in BENCHMARK.json;
// tail is the highest percentile its sample count supports (the guide's
// ten-samples-beyond rule), falling back to the median when a run yields
// fewer samples than that.
type workload struct {
	name  string
	why   string
	tail  float64
	phase func(r *runner, ctx context.Context, seconds float64, rec *recorder) *measurement
}

var workloads = []workload{
	{"batch_fig5", "paper's headline figure as a batch user runs it: bulk-data apps dominate, so memsys/genima/wire do the work and the service layers none",
		50, (*runner).batchPhase},
	{"farm_cold_sync", "cold farm path on the lock/task-queue app and the most barrier-bound one: sim park/wake, SysLock and barriers do the work, plus pool, cache put, live SSE",
		50, (*runner).coldPhase},
	{"farm_warm_hits", "all-hit sweeps on a prefilled farm: the simulator does nothing; admission, cache get, JSON, net/http, logging and GC over retained sweeps do it all",
		99, (*runner).warmPhase},
	{"farm_mixed_open", "open-loop arrivals, two in three novel fault-plan sweeps, the rest repeats: cache writes and evictions beside reads, coalescing, pool queueing",
		95, (*runner).openPhase},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runConfig is one run's parameters.  The driver sets the first three (and
// names the workload); the rest have fixed defaults that only the smoke tests
// shrink.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool

	scale      string  // problem scale of the batch and cold grids
	clients    int     // request-issuing goroutines and connections: benchProcs()
	warmSweeps int     // sweeps per warm server, reported in five segments
	openRate   float64 // arrivals per second of the open workload
	setupReps  int     // set-up samples per run
}

func defaultConfig(clients int) runConfig {
	return runConfig{scale: "paper", clients: clients, warmSweeps: 4000, openRate: 15, setupReps: 5}
}

// measurement is what one timed phase yields.  Only operations that
// succeeded contribute timings; failed ones are counted.
type measurement struct {
	attempted, failed int // operations: sweeps, or batch runs
	checks            checks
	doneMS            []float64            // submit (or process start) to last cell result
	reps              []rep                // one per successful rep (batch run, cold rep, warm server, open phase); each did at least one cell
	rss               []float64            // child resident-set high-water marks, MB
	layer             map[string][]float64 // per-layer samples, by metric name
	virt              map[string][]float64 // cell -> virtual parallel ms, one per simulation of it
	simEvents         map[string]int64     // summed event counters of the cells simulated
	simHost           time.Duration        // host time those cells took
	backlogGrew       bool                 // open loop: arrivals started later and later
}

// rep is what one successful rep of a timed phase did and cost: the cells
// that reached their expected terminal state, the wall clock they took, and
// the cablesim child's CPU over the same interval.  Rates are taken per rep
// and their median reported, so that one rep the host stalled moves the
// result less than it would move a total.
type rep struct {
	cells     int
	wall, cpu time.Duration
}

// cellsPerSecond and cpuMSPerCell are the medians over the reps.
func (m *measurement) cellsPerSecond() float64 {
	xs := make([]float64, len(m.reps))
	for i, r := range m.reps {
		xs[i] = float64(r.cells) / r.wall.Seconds()
	}
	return median(xs)
}

func (m *measurement) cpuMSPerCell() float64 {
	xs := make([]float64, len(m.reps))
	for i, r := range m.reps {
		xs[i] = ms(r.cpu) / float64(r.cells)
	}
	return median(xs)
}

func newMeasurement() *measurement {
	return &measurement{layer: map[string][]float64{}, virt: map[string][]float64{}, simEvents: map[string]int64{}}
}

func (m *measurement) addLayer(name string, v float64) {
	m.layer[name] = append(m.layer[name], v)
}

// merge folds another phase of the same workload into m.
func (m *measurement) merge(o *measurement) {
	m.attempted += o.attempted
	m.failed += o.failed
	m.checks.failures += o.checks.failures
	m.doneMS = append(m.doneMS, o.doneMS...)
	m.reps = append(m.reps, o.reps...)
	m.rss = append(m.rss, o.rss...)
	for k, v := range o.layer {
		m.layer[k] = append(m.layer[k], v...)
	}
	for k, v := range o.virt {
		m.virt[k] = append(m.virt[k], v...)
	}
	for k, v := range o.simEvents {
		m.simEvents[k] += v
	}
	m.simHost += o.simHost
	m.backlogGrew = m.backlogGrew || o.backlogGrew
}

// maxFailedReps ends a phase early: the rep after a failure is its rerun,
// and a rep is rerun at most twice.
const maxFailedReps = 3

// more reports whether a phase should start another rep: while its time box
// lasts — or, when a hung rep has used the box up, until one rep has
// succeeded — and always only until maxFailedReps have failed.
func (m *measurement) more(begin time.Time, seconds float64) bool {
	return (time.Since(begin).Seconds() < seconds || len(m.doneMS) == 0) && m.failed < maxFailedReps
}

// runner carries what every phase needs.
type runner struct {
	e   *env
	g   *golden
	cfg runConfig
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---- batch_fig5 ----

// batchPhase runs `cablesim fig5` as a child process, rep after rep, until
// the time box is used.  The grid is the paper's and does not depend on the
// seed.
func (r *runner) batchPhase(ctx context.Context, seconds float64, rec *recorder) *measurement {
	m := newMeasurement()
	args := append(gridArgs("fig5", r.cfg.scale, batchApps), "-jobs", strconv.Itoa(r.cfg.clients))
	begin := time.Now()
	for m.more(begin, seconds) {
		m.attempted++
		// Once a rep has shown how long the grid takes here, a hung one is
		// given up on after three times that.
		deadline := gridDeadline
		if len(m.doneMS) > 0 {
			deadline = min(gridDeadline, time.Duration(3*median(m.doneMS))*time.Millisecond+5*time.Second)
		}
		t0 := time.Now()
		out, u, err := r.e.runChild(ctx, deadline, args...)
		rec.add(pidHarness, 0, "fig5", t0, time.Now())
		if err != nil {
			fmt.Printf("# batch rep failed: %v\n", err)
			m.failed++
			continue
		}
		cells := parseFig5(out)
		good := r.g.checkFig5(&m.checks, r.cfg.scale, cells)
		if good == 0 {
			fmt.Printf("# batch rep printed no cell in its expected state\n")
			m.failed++
			continue
		}
		m.reps = append(m.reps, rep{good, u.wall, u.cpu})
		m.doneMS = append(m.doneMS, ms(u.wall))
		m.rss = append(m.rss, u.rssMB)
		for _, cell := range cells {
			if d, err := time.ParseDuration(cell.text); err == nil {
				id := cellID(cell.app, cell.backend, cell.procs)
				m.virt[id] = append(m.virt[id], ms(d))
			}
		}
	}
	return m
}

// virtSummary summarises virtual (simulated) parallel times per cell: their
// sum over the grid, and the largest run-to-run relative spread of any cell
// that was simulated more than once — the ROADMAP's determinism target is 0.
func (m *measurement) virtSummary() (sum, worst float64) {
	for _, xs := range m.virt {
		sum += mean(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		if lo > 0 {
			worst = max(worst, (hi-lo)/lo)
		}
	}
	return sum, worst
}

// ---- shared farm pieces ----

// sweepCells decodes one sweep's stream and checks every terminal cell
// against the goldens.
type sweepCells struct {
	terminal []cellEvent
	good     int
}

func (r *runner) decodeInto(sc *sweepCells, c *checks, scale string) func(kind string, data []byte) {
	return func(kind string, data []byte) {
		if kind != "cell" {
			return
		}
		var ev cellEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			c.fail("undecodable cell event: %v", err)
			return
		}
		if !ev.terminal() {
			return
		}
		if r.g.checkCell(c, scale, &ev) {
			sc.good++
		}
		sc.terminal = append(sc.terminal, ev)
	}
}

// liveLayer turns two scrapes of one server into the farm's own view of a
// phase: where cells waited and ran, what the handlers cost, how the cache
// answered.
func (m *measurement) liveLayer(before, after *exposition) cacheOutcomes {
	m.addLayer("farm.cell_run_ms_mean", histMeanMS(before, after, "cables_farm_cell_run_seconds"))
	m.addLayer("farm.queue_wait_ms_mean", histMeanMS(before, after, "cables_farm_cell_queue_wait_seconds"))
	m.addLayer("farm.http_submit_ms_mean",
		histMeanMS(before, after, "cables_farm_http_request_seconds", "route=POST /v1/sweeps"))
	o := cacheDelta(before, after)
	m.addLayer("farm.hit_ratio", o.hitRatio())
	m.addLayer("farm.coalesced", o.coalesced)
	m.addLayer("farm.evictions", o.evictions)
	return o
}

// clientLayer records what the client saw of the same operations.
func (m *measurement) clientLayer(ts []sweepTiming, serverSubmitMS float64) {
	var post, first, kb []float64
	for _, t := range ts {
		post = append(post, ms(t.posted.Sub(t.start)))
		first = append(first, ms(t.first.Sub(t.start)))
		kb = append(kb, float64(t.bytes)/1024)
	}
	m.addLayer("farm.first_event_ms", median(first))
	m.addLayer("farm.response_kb", mean(kb))
	if p := median(post); p > 0 {
		m.addLayer("farm.client_share", (p-serverSubmitMS)/p)
	}
}

// spanSweep records one operation's client-side spans on a lane.
func spanSweep(rec *recorder, lane int, t sweepTiming) {
	rec.add(pidHarness, lane, "sweep", t.start, t.done)
	rec.add(pidHarness, lane, "post", t.start, t.posted)
	rec.add(pidHarness, lane, "stream.wait_first", t.posted, t.first)
	rec.add(pidHarness, lane, "stream.rest", t.first, t.done)
}

// stopServer drains a server.  A server that died or would not drain costs
// one failed operation, unless the phase already counted the operations the
// death failed (failedBefore is m.failed when the server was started).
func (m *measurement) stopServer(s *server, rec *recorder, failedBefore int) {
	t0 := time.Now()
	drain, err := s.stop()
	rec.add(pidHarness, 0, "drain", t0, time.Now())
	if err != nil {
		fmt.Printf("# %v\n", err)
		if m.failed == failedBefore {
			m.attempted++
			m.failed++
		}
		return
	}
	m.addLayer("farm.drain_ms", ms(drain))
}

// ---- farm_cold_sync ----

// coldPhase boots a fresh server per rep, submits the sync-heavy grid twice
// back to back — default and contended-sync wire plane — and follows both
// SSE streams to their terminal events.
func (r *runner) coldPhase(ctx context.Context, seconds float64, rec *recorder) *measurement {
	m := newMeasurement()
	specs := [][]byte{
		mustJSON(spec{Kind: "counters", Apps: syncApps, Procs: procList, Scale: r.cfg.scale}),
		mustJSON(spec{Kind: "counters", Apps: syncApps, Procs: procList, Scale: r.cfg.scale, ContendedSync: true}),
	}
	begin := time.Now()
	want := len(syncApps) * len(procList) * len(backends)
	for m.more(begin, seconds) {
		failedBefore := m.failed
		t0 := time.Now()
		srv, err := r.e.startServer(ctx)
		rec.add(pidHarness, 0, "boot", t0, time.Now())
		if err != nil {
			fmt.Printf("# cold rep: %v\n", err)
			m.attempted++
			m.failed++
			continue
		}
		c := newFarmClient(srv.base, r.cfg.clients)
		got := make([]sweepCells, len(specs))
		ts := make([]sweepTiming, len(specs))
		errs := make([]error, len(specs))
		var repChecks [2]checks
		var wg sync.WaitGroup
		repStart := time.Now()
		for i := range specs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ts[i], errs[i] = c.sweep(ctx, specs[i], false, r.decodeInto(&got[i], &repChecks[i], r.cfg.scale))
			}(i)
		}
		wg.Wait()
		repWall := time.Since(repStart)
		cpu, rss := srv.procUsage()
		after, scrapeErr := c.scrape(ctx)
		c.close()
		m.attempted += len(specs)
		for i, err := range errs {
			m.checks.failures += repChecks[i].failures
			if err != nil || got[i].good != want {
				fmt.Printf("# cold sweep failed: %d of %d cells good: %v\n", got[i].good, want, err)
				m.failed++
			}
		}
		m.stopServer(srv, rec, failedBefore)
		if m.failed != failedBefore || scrapeErr != nil {
			continue // no timing from a failed rep
		}
		repHost := int64(0)
		for i := range specs {
			spanSweep(rec, 1+i, ts[i])
			m.doneMS = append(m.doneMS, ms(ts[i].done.Sub(ts[i].start)))
			for _, ev := range got[i].terminal {
				if ev.Result == nil || ev.Status != "done" {
					continue
				}
				repHost += ev.Result.HostNS
				id := fmt.Sprintf("%s/%d", cellID(ev.App, ev.Backend, ev.Procs), i)
				m.virt[id] = append(m.virt[id], float64(ev.Result.Result.Parallel)/1e6)
				for k, v := range ev.Result.Counters {
					m.simEvents[k] += v
				}
			}
		}
		m.simHost += time.Duration(repHost)
		m.reps = append(m.reps, rep{len(specs) * want, repWall, cpu})
		m.rss = append(m.rss, rss)
		workers := after.sum("cables_farm_pool_workers")
		m.addLayer("farm.cold_overhead_share", 1-float64(repHost)/(workers*float64(repWall)))
		m.addLayer("farm.pool_util_mean", float64(repHost)/(workers*float64(repWall)))
		m.liveLayer(nil, after)
		m.clientLayer(ts, histMeanMS(nil, after, "cables_farm_http_request_seconds", "route=POST /v1/sweeps"))
	}
	return m
}

// ---- farm_warm_hits ----

// warmSegments is how many equal slices of a warm server's sweeps are rated
// separately, to show throughput decaying as the server retains sweeps.
const warmSegments = 5

// warmSpec is the sweep the warm workload repeats: the four bulk-data
// applications at test scale, 40 cells.  The hit path does not care which
// cells it replays, and the lock-using applications are left out because at
// test scale they trip the simulator's intermittent crash in a third of
// all prefills (README, known limits).
var (
	warmSpec  = mustJSON(spec{Apps: bulkApps, Procs: procList, Scale: "test"})
	warmCells = len(bulkApps) * len(procList) * len(backends)
)

// prefill submits warmSpec, waits for it, and returns each cell's result
// exactly as the server rendered it, keyed by cell key.
func (r *runner) prefill(ctx context.Context, c *farmClient, m *measurement) (map[string][]byte, error) {
	fresh := map[string][]byte{}
	var sc sweepCells
	decode := r.decodeInto(&sc, &m.checks, "test")
	m.attempted++
	_, err := c.sweep(ctx, warmSpec, true, func(kind string, data []byte) {
		decode(kind, data)
		if key, res, ok := cellResultBytes(data); kind == "cell" && ok {
			fresh[string(key)] = append([]byte(nil), res...)
		}
	})
	if err == nil && sc.good != warmCells {
		err = fmt.Errorf("%d of %d cells good", sc.good, warmCells)
	}
	if err != nil {
		m.failed++
		return nil, fmt.Errorf("prefill: %w", err)
	}
	return fresh, nil
}

// cellResultBytes cuts a terminal cell event's key and rendered result out
// of its JSON without decoding it.  The farm renders "result" last.
// The key comes back as bytes so that the warm loop's map lookup, forty times
// a sweep, does not allocate a string.
func cellResultBytes(data []byte) (key, result []byte, ok bool) {
	key, ok = cutField(data, `"key":"`)
	i := bytes.Index(data, []byte(`,"result":`))
	if !ok || i < 0 || len(data) == 0 || data[len(data)-1] != '}' {
		return nil, nil, false
	}
	return key, data[i+len(`,"result":`) : len(data)-1], true
}

// warmPhase boots fresh servers one after another; on each it prefills the
// cache and then issues a fixed number of identical all-hit sweeps, closed
// loop, from r.cfg.clients clients.  The count per server is fixed because
// the server slows as it retains sweeps, so latency depends on it.
func (r *runner) warmPhase(ctx context.Context, seconds float64, rec *recorder) *measurement {
	m := newMeasurement()
	body, want := warmSpec, warmCells
	begin := time.Now()
	for m.more(begin, seconds) {
		failedBefore := m.failed
		t0 := time.Now()
		srv, err := r.e.startServer(ctx)
		rec.add(pidHarness, 0, "boot", t0, time.Now())
		if err != nil {
			fmt.Printf("# warm server: %v\n", err)
			m.attempted++
			m.failed++
			continue
		}
		c := newFarmClient(srv.base, r.cfg.clients)
		t0 = time.Now()
		fresh, err := r.prefill(ctx, c, m)
		rec.add(pidHarness, 0, "prefill", t0, time.Now())
		before, scrapeErr := c.scrape(ctx)
		if err != nil || scrapeErr != nil {
			fmt.Printf("# warm server: %v %v\n", err, scrapeErr)
			c.close()
			m.stopServer(srv, rec, failedBefore)
			continue
		}

		type op struct {
			t  sweepTiming
			ok bool
		}
		ops := make([][]op, r.cfg.clients)
		var next atomic.Int64
		var stale atomic.Int64 // cells whose replayed result differed from the fresh one
		cpu0, _ := srv.procUsage()
		self0 := selfCPU()
		phaseStart := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < r.cfg.clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for next.Add(1) <= int64(r.cfg.warmSweeps) {
					good := 0
					t, err := c.sweep(ctx, body, true, func(kind string, data []byte) {
						if kind != "cell" {
							return
						}
						key, res, ok := cellResultBytes(data)
						switch {
						case !ok || !bytes.Contains(data, []byte(`"cached":true`)):
						case !bytes.Equal(res, fresh[string(key)]):
							stale.Add(1)
						default:
							good++
						}
					})
					ops[w] = append(ops[w], op{t, err == nil && good == want})
					if err != nil {
						fmt.Printf("# warm sweep failed: %v\n", err)
						return
					}
					spanSweep(rec, 1+w, t)
				}
			}(w)
		}
		wg.Wait()
		phaseWall := time.Since(phaseStart)
		cpu1, rss := srv.procUsage()
		self1 := selfCPU()
		after, scrapeErr := c.scrape(ctx)
		c.close()

		var all []sweepTiming
		good := 0
		for _, w := range ops {
			for _, o := range w {
				m.attempted++
				if !o.ok {
					m.failed++
					continue
				}
				good++
				all = append(all, o.t)
			}
		}
		if n := stale.Load(); n > 0 {
			m.checks.fail("warm: %d replayed cell results differ from the fresh result of the same key", n)
		}
		m.stopServer(srv, rec, failedBefore)
		if m.failed != failedBefore || scrapeErr != nil || good != r.cfg.warmSweeps {
			continue // no timing from a server that failed part of its phase
		}
		if o := m.liveLayer(before, after); o.misses != 0 {
			m.checks.fail("warm: %v cache misses after the prefill, want 0", o.misses)
		}
		for _, t := range all {
			m.doneMS = append(m.doneMS, ms(t.done.Sub(t.start)))
		}
		m.reps = append(m.reps, rep{good * want, phaseWall, cpu1 - cpu0})
		m.rss = append(m.rss, rss)
		m.clientLayer(all, histMeanMS(before, after, "cables_farm_http_request_seconds", "route=POST /v1/sweeps"))
		m.addLayer("farm.warm_rate_decay", rateDecay(all, warmSegments))
		if total := (cpu1 - cpu0) + (self1 - self0); total > 0 {
			m.addLayer("loadgen.cpu_share", float64(self1-self0)/float64(total))
		}
	}
	return m
}

// rateDecay splits the operations, in completion order, into equal segments
// and returns the last segment's completion rate over the first's.
func rateDecay(ts []sweepTiming, segments int) float64 {
	n := len(ts) / segments
	if n < 2 {
		return 0
	}
	done := make([]float64, len(ts))
	for i, t := range ts {
		done[i] = float64(t.done.UnixNano())
	}
	sort.Float64s(done)
	rate := func(seg int) float64 {
		lo, hi := done[seg*n], done[(seg+1)*n-1]
		if hi <= lo {
			return 0
		}
		return float64(n-1) / (hi - lo)
	}
	if first := rate(0); first > 0 {
		return rate(segments-1) / first
	}
	return 0
}

// ---- farm_mixed_open ----

// arrival is one scheduled operation of the open loop.
type arrival struct {
	due   time.Duration // offset from the phase start
	body  []byte
	novel bool
}

// openCacheEntries bounds the open workload's server cache so that a run
// evicts within seconds: each novel sweep adds ten entries.  openRecent is
// how far back a repeat reaches; its cells (two thirds of the specs novel,
// ten cells each) fit the cache, so a repeat hits unless its original is
// still running.
const (
	openCacheEntries = 256
	openRecent       = 24
)

// openApps are the applications a novel sweep draws from.  Their ten-cell
// test-scale sweeps cost the same (about 45 ms on two idle workers), so the
// novel operations form one tight mode; OCEAN and RADIX cost two and four
// times that and would make the tail a matter of which app a seed put last.
var openApps = []string{"FFT", "LU"}

// openSchedule is a pure function of (seed, rate, seconds): one arrival per
// 1/rate slot at a uniformly random offset inside it, so bursts are bounded
// and every seed offers the same load.  Each arrival is a one-app sweep of
// ten test-scale cells under a send-fault plan.  Two in three are novel (a
// fresh fault seed, so they miss, simulate, are cached and later evicted);
// one in three repeats one of the last openRecent issued specs (so it hits,
// or coalesces onto a sweep still in flight).  With that mix the median
// operation and the tail are both simulations, inside one mode.  At one in
// two the median sat on the seam between hits and simulations and moved 30 %
// from seed to seed; at one in three it was a hit whose latency depended on
// whether the two workers happened to be busy, and moved 40 %.
func openSchedule(seed uint64, rate, seconds float64) []arrival {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := int(rate * seconds)
	var out []arrival
	var issued [][]byte
	novelCount, repeatAt := 0, 0
	for i := 0; i < n; i++ {
		a := arrival{due: time.Duration((float64(i) + rng.Float64()) / rate * float64(time.Second))}
		// Arrivals come in threes, the repeat at a seeded place, so exactly
		// two thirds of every whole number of threes are novel.  The very
		// first has nothing to repeat.
		if i%3 == 0 {
			repeatAt = 1 + rng.Intn(2)
		}
		a.novel = i%3 != repeatAt
		if a.novel {
			a.body = mustJSON(spec{Apps: []string{openApps[novelCount%len(openApps)]}, Procs: procList,
				Scale: "test", Plan: "send:p=0.01", Seed: 1 + rng.Uint64()>>1})
			novelCount++
		} else {
			recent := issued[max(0, len(issued)-openRecent):]
			a.body = recent[rng.Intn(len(recent))]
		}
		issued = append(issued, a.body)
		out = append(out, a)
	}
	return out
}

// openSLOms is the latency limit on the open workload's p95.
const openSLOms = 1000

// openGrace is how long past its schedule an open phase may run before the
// arrivals not yet issued are given up as failed: on a host too slow for the
// rate the backlog only grows, and a run has to end.
const openGrace = 30 * time.Second

// openPhase runs the seeded schedule against one fresh server: arrivals
// wait for one of r.cfg.clients connections, and each operation is timed
// from the moment it was due, so a stall is charged to every arrival it
// delayed.  /metrics is scraped every two seconds, as `cablesim top` does.
// A phase whose server would not boot or died under it yields no timing and
// is run again, at most twice, like a failed rep of the other workloads.
func (r *runner) openPhase(ctx context.Context, seconds float64, rec *recorder) *measurement {
	m := newMeasurement()
	for try := 0; try < maxFailedReps && len(m.reps) == 0 && ctx.Err() == nil; try++ {
		m.merge(r.openAtRate(ctx, r.cfg.openRate, seconds, rec))
	}
	return m
}

func (r *runner) openAtRate(ctx context.Context, rate, seconds float64, rec *recorder) *measurement {
	m := newMeasurement()
	sched := openSchedule(r.cfg.seed, rate, seconds)
	t0 := time.Now()
	srv, err := r.e.startServer(ctx, "-cache-entries", strconv.Itoa(openCacheEntries))
	rec.add(pidHarness, 0, "boot", t0, time.Now())
	if err != nil {
		fmt.Printf("# open server: %v\n", err)
		m.attempted++
		m.failed++
		return m
	}
	c := newFarmClient(srv.base, r.cfg.clients+1) // one more for the scraper

	// The phase ends when the schedule is done, or openGrace after it should
	// have been, or when the server dies: what is not issued by then fails.
	phaseCtx, endPhase := context.WithTimeout(ctx, time.Duration(seconds*float64(time.Second))+openGrace)
	defer endPhase()
	go func() {
		select {
		case <-srv.exited:
			endPhase()
		case <-phaseCtx.Done():
		}
	}()

	// The scraper polls like `cablesim top`: part of the traffic mix.
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-phaseCtx.Done():
				return
			case <-tick.C:
				_, _ = c.scrape(phaseCtx) // a failed poll shows as failed operations anyway
			}
		}
	}()

	cpu0, _ := srv.procUsage()
	self0 := selfCPU()
	phaseStart := time.Now()
	ops := r.issueOpen(phaseCtx, c, sched, rec, &m.checks)
	phaseWall := time.Since(phaseStart)
	endPhase()
	<-scraped
	cpu1, rss := srv.procUsage()
	self1 := selfCPU()
	died := !srv.alive()
	after, scrapeErr := c.scrape(ctx)
	c.close()

	var late []float64
	var ts []sweepTiming
	hostNS, cells := int64(0), 0
	for _, o := range ops {
		m.attempted++
		if o.err != nil || o.good != len(procList)*len(backends) {
			if m.failed < 5 {
				fmt.Printf("# open sweep failed: %d cells good: %v\n", o.good, o.err)
			}
			m.failed++
			continue
		}
		m.doneMS = append(m.doneMS, ms(o.t.done.Sub(o.due)))
		late = append(late, ms(o.t.start.Sub(o.due)))
		cells += o.good
		hostNS += o.hostNS
		ts = append(ts, o.t)
	}
	m.stopServer(srv, rec, 0)
	if died || cells == 0 {
		m.doneMS = nil // no timing from a phase whose server died
		return m
	}
	m.reps = append(m.reps, rep{cells, phaseWall, cpu1 - cpu0})
	m.rss = append(m.rss, rss)
	m.addLayer("loadgen.late_ms_p95", percentile(late, 95))
	if total := (cpu1 - cpu0) + (self1 - self0); total > 0 {
		m.addLayer("loadgen.cpu_share", float64(self1-self0)/float64(total))
	}
	// A growing backlog shows as arrivals starting later and later after
	// they were due: the last third's mean lateness against the first's.
	n := len(late) / 3
	m.backlogGrew = n > 0 && mean(late[len(late)-n:])-mean(late[:n]) > openSLOms/4
	if scrapeErr != nil {
		fmt.Printf("# open phase: no final scrape, so no farm layer numbers: %v\n", scrapeErr)
		return m
	}
	m.liveLayer(nil, after)
	m.clientLayer(ts, histMeanMS(nil, after, "cables_farm_http_request_seconds", "route=POST /v1/sweeps"))
	if workers := after.sum("cables_farm_pool_workers"); workers > 0 {
		m.addLayer("farm.pool_util_mean", float64(hostNS)/(workers*float64(phaseWall)))
	}
	return m
}

// openOp is one issued arrival: when it was due, and what came of it.
type openOp struct {
	t      sweepTiming
	due    time.Time
	good   int   // cells in their expected terminal state
	hostNS int64 // host time of the cells this operation had simulated
	err    error
}

// issueOpen is the open loop itself.  r.cfg.clients workers take the
// arrivals in schedule order; a worker sleeps until its arrival is due, or
// issues it at once if that moment has passed, so arrivals wait for one of
// the connections but their clock starts when they were due.  Once ctx is
// done the arrivals not yet issued fail without being sent.
func (r *runner) issueOpen(ctx context.Context, c *farmClient, sched []arrival, rec *recorder, cs *checks) []openOp {
	ops := make([]openOp, len(sched))
	var mu sync.Mutex // guards cs
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < r.cfg.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].due)
				wait := time.NewTimer(time.Until(due))
				select {
				case <-wait.C:
				case <-ctx.Done():
					wait.Stop()
				}
				if err := ctx.Err(); err != nil {
					ops[i] = openOp{due: due, err: fmt.Errorf("not issued: %w", err)}
					continue
				}
				var sc sweepCells
				var local checks
				t, err := c.sweep(ctx, sched[i].body, true, r.decodeInto(&sc, &local, "test"))
				ops[i] = openOp{t: t, due: due, good: sc.good, err: err}
				for _, ev := range sc.terminal {
					if !ev.Cached && ev.Result != nil {
						ops[i].hostNS += ev.Result.HostNS
					}
				}
				if err == nil {
					spanSweep(rec, 1+w, t)
				}
				mu.Lock()
				cs.failures += local.failures
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return ops
}

// inSLO reports whether an open phase met the limit: its p95 within
// openSLOms, nothing failed, no growing backlog.
func (m *measurement) inSLO() bool {
	return m.failed == 0 && len(m.doneMS) > 0 && percentile(m.doneMS, 95) <= openSLOms && !m.backlogGrew
}
