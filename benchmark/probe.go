package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"cables/internal/apps/misc"
	"cables/internal/bench"
	"cables/internal/coherence"
	cables "cables/internal/core"
	"cables/internal/farm"
	"cables/internal/m4"
	"cables/internal/memsys"
	"cables/internal/metrics"
	"cables/internal/san"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/vmmc"
	"cables/internal/wire"
)

// The layer probes time calls into each module's public functions from
// outside: they run in a child process (`benchmark -probe`) because a
// simulator panic on a spawned goroutine kills the process it happens in.
// Each probe is a unit cost — what one operation of a layer costs the host —
// not a share of any workload; the budget.* estimates multiply them by event
// counts.

// probeReport is what the probe child prints on stdout.
type probeReport struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span             `json:"spans"`
	Errors  []string           `json:"errors,omitempty"`
}

// perOp measures fn(n) — n operations — and returns the host nanoseconds and
// heap allocations per operation: n grows until a batch lasts 10 ms, then the
// median of five batches is taken.
func perOp(fn func(n int)) (ns, allocs float64) {
	n := 1
	for {
		start := time.Now()
		fn(n)
		if d := time.Since(start); d >= 10*time.Millisecond || n >= 1<<24 {
			break
		}
		n *= 4
	}
	var times []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < 5; i++ {
		start := time.Now()
		fn(n)
		times = append(times, float64(time.Since(start))/float64(n))
	}
	runtime.ReadMemStats(&ms1)
	return median(times), float64(ms1.Mallocs-ms0.Mallocs) / float64(5*n)
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink int

// dispatchPol is an interface variable so the calls under test stay
// indirect, as they are on the flush path.
var dispatchPol = coherence.MustNew(coherence.ProtoGenima)

func runProbes() probeReport {
	rep := probeReport{Metrics: map[string]float64{}}
	set := func(name string, v float64) { rep.Metrics[name] = v }
	probe := func(name string, fn func()) {
		defer func() {
			if r := recover(); r != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", name, r))
			}
		}()
		fn()
	}

	// ---- bench: one paper-scale cell per application, alone on the host ----
	probe("bench.cell", func() {
		memsys.ResetFramesPeak()
		gridStart := time.Now()
		for _, app := range batchApps {
			var host []float64
			var ms0, ms1 runtime.MemStats
			for i := 0; i < 3; i++ {
				runtime.ReadMemStats(&ms0)
				start := time.Now()
				_, _, err := bench.RunAppCell(app, bench.BackendCables, 8, bench.ScalePaper, nil, bench.CellOptions{})
				end := time.Now()
				runtime.ReadMemStats(&ms1)
				if err != nil {
					panic(fmt.Sprintf("%s: %v", app, err))
				}
				host = append(host, ms(end.Sub(start)))
				rep.Spans = append(rep.Spans, span{pidProbe, 0, "cell:" + app + "/cables/8", start.UnixNano(), end.UnixNano()})
			}
			set("bench.cell_host_ms."+app, median(host))
			set("bench.cell_allocs."+app, float64(ms1.Mallocs-ms0.Mallocs))
		}
		rep.Spans = append(rep.Spans, span{pidProbe, 0, "grid", gridStart.UnixNano(), time.Now().UnixNano()})
		set("memsys.frames_peak_mb", float64(memsys.FramesResidentPeak()*memsys.PageSize)/(1<<20))
	})
	probe("bench.pool", func() {
		p := bench.NewPool(runtime.GOMAXPROCS(0))
		ns, _ := perOp(func(n int) {
			for i := 0; i < n; i++ {
				if err := p.Submit(func() {}); err != nil {
					panic(err)
				}
			}
			p.Wait()
		})
		p.Drain()
		set("bench.pool_dispatch_us", ns/1e3)
	})
	probe("profile", func() {
		// One LU cell with the virtual-time profiler attached over the same
		// cell without, the two alternating so neither gets the warmer host.
		var attached, detached []float64
		for i := 0; i < 8; i++ {
			start := time.Now()
			if _, _, _, err := bench.RunAppCellProfiled("LU", bench.BackendCables, 8, bench.ScalePaper, nil, bench.CellOptions{}); err != nil {
				panic(err)
			}
			mid := time.Now()
			if _, _, err := bench.RunAppCell("LU", bench.BackendCables, 8, bench.ScalePaper, nil, bench.CellOptions{}); err != nil {
				panic(err)
			}
			attached = append(attached, ms(mid.Sub(start)))
			detached = append(detached, ms(time.Since(mid)))
		}
		set("profile.attached_ratio", median(attached)/median(detached))
	})

	// ---- sim ----
	probe("sim.compute", func() {
		task := sim.NewTask(1, 0, sim.DefaultCosts())
		ns, _ := perOp(func(n int) {
			for i := 0; i < n; i++ {
				task.Compute(100)
			}
		})
		set("sim.compute_charge_ns", ns)
	})
	probe("sim.spawn_join", func() {
		rt := m4.New(m4.Config{Procs: 8, ProcsPerNode: 2, ArenaBytes: 16 << 20})
		main := rt.Main()
		ns, _ := perOp(func(n int) {
			for i := 0; i < n; i++ {
				rt.Join(main, rt.Spawn(main, func(*sim.Task) {}))
			}
		})
		set("sim.spawn_join_us", ns/1e3)
	})
	probe("sim.barrier", func() {
		const parties, rounds = 8, 200
		rt := m4.New(m4.Config{Procs: parties, ProcsPerNode: 2, ArenaBytes: 16 << 20})
		main := rt.Main()
		var elapsed time.Duration
		ids := make([]int, parties)
		for w := range ids {
			w := w
			ids[w] = rt.Spawn(main, func(t *sim.Task) {
				rt.Barrier(t, "align", parties)
				start := time.Now()
				for i := 0; i < rounds; i++ {
					rt.Barrier(t, "round", parties)
				}
				if w == 0 {
					elapsed = time.Since(start)
				}
			})
		}
		for _, id := range ids {
			rt.Join(main, id)
		}
		set("sim.barrier_round_us", float64(elapsed)/rounds/1e3)
	})

	// ---- memsys ----
	for _, kind := range []string{"clean", "sparse", "dense"} {
		kind := kind
		probe("memsys.diff."+kind, func() {
			data, twin, home := diffInput(kind)
			ns, _ := perOp(func(n int) {
				for i := 0; i < n; i++ {
					sink += memsys.DiffPage(data, twin, home)
				}
			})
			set("memsys.diff_ns."+kind, ns)
		})
	}
	probe("memsys.access", func() {
		rt := m4.New(m4.Config{Procs: 2, ProcsPerNode: 2, ArenaBytes: 16 << 20})
		main, acc := rt.Main(), rt.Acc()
		addr, err := rt.Malloc(main, "access", 1<<12)
		if err != nil {
			panic(err)
		}
		acc.WriteI64(main, addr, 1)
		ns, _ := perOp(func(n int) {
			for i := 0; i < n; i++ {
				sink += int(acc.ReadI64(main, addr))
			}
		})
		set("memsys.access_ns", ns)
	})

	// ---- genima ----
	probe("genima.flush", func() {
		// A non-home writer dirties 8 pages sparsely and flushes: 8 twins,
		// 8 diffs to the remote home, one write-notice publication.
		ns, allocs := onRemoteWorker(8<<12, func(rt *m4.Runtime, th *sim.Task, addr memsys.Addr) (float64, float64) {
			acc := rt.Acc()
			return perOp(func(n int) {
				for i := 0; i < n; i++ {
					for p := 0; p < 8; p++ {
						for w := 0; w < 512; w += 3 {
							acc.WriteI64(th, addr+memsys.Addr(p<<12+w*8), int64(i+w))
						}
					}
					rt.Protocol().Flush(th)
				}
			})
		})
		set("genima.flush_us", ns/1e3)
		set("genima.flush_allocs", allocs)
	})
	probe("genima.fetch", func() {
		// A node-1 reader touches pages homed on node 0 for the first time:
		// one remote fault and one page fetch each.
		const pages = 1024
		ns, _ := onRemoteWorker(pages<<12, func(rt *m4.Runtime, th *sim.Task, addr memsys.Addr) (float64, float64) {
			acc := rt.Acc()
			start := time.Now()
			for p := 0; p < pages; p++ {
				sink += int(acc.ReadI64(th, addr+memsys.Addr(p<<12)))
			}
			return float64(time.Since(start)) / pages, 0
		})
		set("genima.fetch_us", ns/1e3)
	})
	probe("genima.acquire", func() {
		// A strict 2-node lock ping-pong: acquire (invalidate the peer's
		// interval), four scalar updates, release (flush).
		const rounds = 2000
		rt := m4.New(m4.Config{Procs: 2, ProcsPerNode: 1, ArenaBytes: 16 << 20})
		main, acc := rt.Main(), rt.Acc()
		addr, err := rt.Malloc(main, "acquire", 4<<12)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 4; i++ {
			acc.WriteI64(main, addr+memsys.Addr(i<<12), 0)
		}
		rt.Protocol().Flush(main)
		turn := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
		var elapsed time.Duration
		var ms0, ms1 runtime.MemStats
		ids := make([]int, 2)
		for w := range ids {
			w := w
			ids[w] = rt.Spawn(main, func(th *sim.Task) {
				if w == 0 {
					runtime.ReadMemStats(&ms0)
				}
				start := time.Now()
				for i := 0; i < rounds; i++ {
					<-turn[w]
					rt.Lock(th, 1)
					for s := 0; s < 4; s++ {
						v := acc.ReadI64(th, addr+memsys.Addr(s<<12))
						acc.WriteI64(th, addr+memsys.Addr(s<<12), v+1)
					}
					rt.Unlock(th, 1)
					turn[1-w] <- struct{}{}
				}
				if w == 0 {
					elapsed = time.Since(start)
					runtime.ReadMemStats(&ms1)
				}
			})
		}
		turn[0] <- struct{}{}
		for _, id := range ids {
			rt.Join(main, id)
		}
		// One op is one lock round trip; the two workers alternate.
		set("genima.acquire_us", float64(elapsed)/(2*rounds)/1e3)
		set("genima.acquire_allocs", float64(ms1.Mallocs-ms0.Mallocs)/(2*rounds))
	})

	// ---- coherence, wire, stats ----
	probe("coherence.dispatch", func() {
		// The seam's cost on one flush of 8 diffs under the default protocol.
		ns, _ := perOp(func(n int) {
			for i := 0; i < n; i++ {
				if dispatchPol.Merge() {
					sink++
				}
				for p := 0; p < 8; p++ {
					if dispatchPol.MergeDiff(1, memsys.PageID(p), 0, 128) {
						sink++
					}
				}
			}
		})
		set("coherence.dispatch_ns", ns)
	})
	probe("wire.do", func() {
		ctr := stats.NewCounters(4)
		fab := san.New(4, sim.DefaultCosts(), ctr)
		plane := wire.New(fab, vmmc.NewSystem(fab, vmmc.DefaultLimits()), wire.Options{})
		task := sim.NewTask(1, 0, sim.DefaultCosts())
		ns, allocs := perOp(func(n int) {
			for i := 0; i < n; i++ {
				plane.Do(task, wire.Op{Kind: wire.KindAdminReq, Dst: 1})
			}
		})
		set("wire.do_ns", ns)
		set("wire.do_allocs", allocs)
	})
	probe("stats.add", func() {
		ctr := stats.NewCounters(4)
		ns, _ := perOp(func(n int) {
			for i := 0; i < n; i++ {
				ctr.Add(0, stats.EvMessagesSent, 1)
			}
		})
		set("stats.add_ns", ns)
	})

	// ---- core (CableS pthreads) ----
	probe("core.create_join", func() {
		rt := cables.New(cables.Config{MaxNodes: 4, ProcsPerNode: 2})
		main := rt.Start().Task
		ns, _ := perOp(func(n int) {
			for i := 0; i < n; i++ {
				rt.Join(main, rt.Create(main, func(*cables.Thread) {}))
			}
		})
		set("core.create_join_us", ns/1e3)
	})
	probe("core.cond", func() {
		// The producer/consumer program of Table 5: every item is one
		// mutex+cond hand-off in each direction.
		const items = 500
		start := time.Now()
		misc.RunPC(cables.New(cables.Config{MaxNodes: 1, ProcsPerNode: 2}), items)
		set("core.cond_roundtrip_us", float64(time.Since(start))/items/1e3)
	})

	// ---- metrics ----
	probe("metrics", func() {
		reg, cv := farmShapedRegistry()
		c := cv.With("FFT", "genima", "done")
		ns, _ := perOp(func(n int) {
			for i := 0; i < n; i++ {
				c.Inc()
			}
		})
		set("metrics.inc_ns", ns)
		ns, allocs := perOp(func(n int) {
			for i := 0; i < n; i++ {
				if err := reg.WritePrometheus(io.Discard); err != nil {
					panic(err)
				}
			}
		})
		set("metrics.scrape_us", ns/1e3)
		set("metrics.scrape_allocs", allocs)
	})

	// ---- farm, in process: the handler without sockets ----
	probe("farm.normalize", func() {
		ns, _ := perOp(func(n int) {
			for i := 0; i < n; i++ {
				s := farm.Spec{Scale: "test"}
				if err := s.Normalize(); err != nil {
					panic(err)
				}
				for _, k := range s.Cells() {
					sink += len(k.Hash())
				}
			}
		})
		set("farm.normalize_us", ns/1e3)
	})
	probe("farm.cache", func() {
		const entries = 4096
		c := farm.NewCache(entries, nil)
		keys := make([]string, 2*entries)
		for i := range keys {
			keys[i] = farm.CellKey{App: "FFT", Procs: i}.Hash()
		}
		res := &farm.CellResult{}
		for _, k := range keys[:entries] {
			c.Put(k, res)
		}
		r := rand.New(rand.NewSource(1))
		ns, _ := perOp(func(n int) {
			for i := 0; i < n; i++ {
				if _, ok := c.Get(keys[r.Intn(entries)]); ok {
					sink++
				}
			}
		})
		set("farm.cache_get_ns", ns)
		next := entries
		ns, _ = perOp(func(n int) { // every put past the bound also evicts
			for i := 0; i < n; i++ {
				c.Put(keys[next%len(keys)], res)
				next++
			}
		})
		set("farm.cache_put_ns", ns)
	})
	probe("farm.hit", func() {
		srv := farm.New(farm.Config{})
		defer srv.Drain()
		h := srv.Handler()
		body := warmSpec // what the warm workload replays
		post := func() string {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweeps", bytes.NewReader(body)))
			id, ok := cutField(w.Body.Bytes(), `"id":"`)
			if w.Code != http.StatusAccepted || !ok {
				panic(fmt.Sprintf("POST /v1/sweeps: %d %.100s", w.Code, w.Body.Bytes()))
			}
			sink += w.Body.Len()
			return string(id)
		}
		replay := func(id string) int {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+id+"/stream?format=ndjson", nil))
			if w.Code != http.StatusOK {
				panic(fmt.Sprintf("GET stream: %d", w.Code))
			}
			return w.Body.Len()
		}
		replay(post()) // the prefill: the stream handler returns once every cell is done

		ns, allocs := perOp(func(n int) {
			for i := 0; i < n; i++ {
				post()
			}
		})
		set("farm.hit_submit_us", ns/1e3)
		set("farm.hit_submit_allocs", allocs)
		id := post()
		ns, _ = perOp(func(n int) {
			for i := 0; i < n; i++ {
				sink += replay(id)
			}
		})
		set("farm.stream_replay_us", ns/1e3)

		// What the server keeps per sweep, forever: heap growth across 300
		// more hit sweeps, measured after a collection on both sides.
		const sweeps = 300
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		for i := 0; i < sweeps; i++ {
			post()
		}
		runtime.GC()
		runtime.ReadMemStats(&ms1)
		set("farm.retained_kb_per_sweep", (float64(ms1.HeapAlloc)-float64(ms0.HeapAlloc))/sweeps/1024)
	})

	return rep
}

// onRemoteWorker builds a 2-node base-system runtime, homes size bytes of
// pages on node 0, and runs body on a worker placed on node 1.
func onRemoteWorker(size int64, body func(rt *m4.Runtime, th *sim.Task, addr memsys.Addr) (float64, float64)) (ns, allocs float64) {
	rt := m4.New(m4.Config{Procs: 4, ProcsPerNode: 2, ArenaBytes: 64 << 20})
	main, acc := rt.Main(), rt.Acc()
	addr, err := rt.Malloc(main, "probe", size)
	if err != nil {
		panic(err)
	}
	for off := int64(0); off < size; off += 1 << 12 {
		acc.WriteI64(main, addr+memsys.Addr(off), 1) // first touch homes the page on node 0
	}
	rt.Protocol().Flush(main)
	rt.Join(main, rt.Spawn(main, func(*sim.Task) {})) // round-robin: this one lands on node 0
	var wg sync.WaitGroup
	wg.Add(1)
	var perr any
	rt.Spawn(main, func(th *sim.Task) {
		defer wg.Done()
		if th.NodeID == 0 {
			perr = "worker landed on the home node"
			return
		}
		ns, allocs = body(rt, th, addr)
	})
	wg.Wait()
	if perr != nil {
		panic(perr)
	}
	return ns, allocs
}

// diffInput builds a (data, twin, home) page triple of the given dirty
// shape: identical pages (the false-alarm flush), eight scattered scalar
// writes (a lock-protected counter), or a fully rewritten page (a bulk phase).
func diffInput(kind string) (data, twin, home []byte) {
	r := rand.New(rand.NewSource(42))
	twin = make([]byte, memsys.PageSize)
	r.Read(twin)
	home = make([]byte, memsys.PageSize)
	r.Read(home)
	data = append([]byte(nil), twin...)
	switch kind {
	case "sparse":
		for i := 0; i < 8; i++ {
			off := r.Intn(memsys.PageSize - 8)
			r.Read(data[off : off+8])
		}
	case "dense":
		r.Read(data)
	}
	return data, twin, home
}

// farmShapedRegistry builds a registry shaped like the farm's: plain
// counters and gauges, a labeled counter family and a labeled histogram
// family with populated series.
func farmShapedRegistry() (*metrics.Registry, *metrics.CounterVec) {
	r := metrics.NewRegistry()
	for i := 0; i < 6; i++ {
		r.Counter(fmt.Sprintf("probe_plain_%d_total", i), "plain counter").Add(int64(i))
		r.Gauge(fmt.Sprintf("probe_gauge_%d", i), "gauge").Set(int64(i))
	}
	cv := r.CounterVec("probe_cells_total", "labeled counter", "app", "backend", "outcome")
	hv := r.HistogramVec("probe_run_seconds", "labeled histogram", nil, "app", "backend", "outcome")
	for _, app := range batchApps {
		for _, backend := range backends {
			cv.With(app, backend, "done").Add(100)
			h := hv.With(app, backend, "done")
			for i := 0; i < 32; i++ {
				h.Observe(float64(i) / 10)
			}
		}
	}
	return r, cv
}

// probeMain is the `benchmark -probe` entry point.
func probeMain() {
	rep := runProbes()
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
}

// probeDefs declares what runProbes reports, by unit.
func probeDefs() []metricDef {
	byUnit := []struct {
		unit  string
		names []string
	}{
		{"ns", []string{"sim.compute_charge_ns", "memsys.diff_ns.clean", "memsys.diff_ns.sparse", "memsys.diff_ns.dense",
			"memsys.access_ns", "coherence.dispatch_ns", "wire.do_ns", "stats.add_ns", "metrics.inc_ns",
			"farm.cache_get_ns", "farm.cache_put_ns"}},
		{"us", []string{"bench.pool_dispatch_us", "sim.spawn_join_us", "sim.barrier_round_us", "genima.flush_us",
			"genima.fetch_us", "genima.acquire_us", "core.create_join_us", "core.cond_roundtrip_us",
			"metrics.scrape_us", "farm.normalize_us", "farm.hit_submit_us", "farm.stream_replay_us"}},
		{"count", []string{"genima.flush_allocs", "genima.acquire_allocs", "wire.do_allocs", "metrics.scrape_allocs",
			"farm.hit_submit_allocs"}},
		{"MB", []string{"memsys.frames_peak_mb"}},
		{"KB", []string{"farm.retained_kb_per_sweep"}},
		{"ratio", []string{"profile.attached_ratio"}},
	}
	var defs []metricDef
	for _, u := range byUnit {
		for _, n := range u.names {
			defs = append(defs, metricDef{n, u.unit, "lower", 0})
		}
	}
	for _, app := range batchApps {
		defs = append(defs, metricDef{"bench.cell_host_ms." + app, "ms", "lower", 0},
			metricDef{"bench.cell_allocs." + app, "count", "lower", 0})
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].name < defs[j].name })
	return defs
}
