// Command cablesim regenerates the paper's tables and figures from the
// simulated CableS/GeNIMA systems.
//
// Usage:
//
//	cablesim table3                 # basic VMMC costs
//	cablesim table4                 # CableS basic-event costs + breakdowns
//	cablesim table5 [-scale s]      # pthreads programs, per-op costs
//	cablesim table6 [-scale s]      # OpenMP SPLASH-2 speedups
//	cablesim fig5 [-scale s] [-apps FFT,LU,...] [-procs 1,4,8]
//	cablesim fig6 [-scale s] [-apps ...] [-procs ...] [-gran 4096]
//	cablesim protocols [-scale s] [-apps ...] [-procs 8]  # coherence-protocol comparison
//	cablesim limits                 # Tables 1/2 registration-limit demo
//	cablesim counters [-profile] [-apps ...] [-procs ...]  # protocol counters
//	cablesim faults -plan <spec> [-seed N] [-profile] [-apps ...] [-procs ...]
//	cablesim profile [-scale s] [-apps ...] [-procs ...] [-top N] [-o trace.json]
//	cablesim serve [-addr :8080] [-jobs N] [-cache-entries N] [-max-queue N]
//	cablesim top [-addr :8080] [-interval 2s] [-n N]  # live farm view via /metrics
//	cablesim all [-scale s]         # everything above (not faults/serve/top)
//
// -scale is "test" (fast), "paper" (scaled evaluation sizes, default) or
// "full" (the testbed's actual SPLASH-2 problem sizes; -full-size is a
// shorthand).  Full-size runs need the copy-on-write frame store to fit in
// host memory — see EXPERIMENTS.md for expected runtimes and footprints.
// -gran overrides the OS mapping granularity in bytes (64 KB default;
// 4096 emulates the paper's planned Linux port); it must be a power of
// two no smaller than the 4 KB page.  -apps, -procs and -gran are checked
// as the farm checks a spec (bench.CheckSweep): an unknown app, a processor
// count outside [1, 64] or a granularity that is not a power of two or is
// below a page exits 2.
// -jobs bounds how many independent simulation cells run concurrently on
// the host (default: one per host processor); -jobs 1 runs the classic
// sequential sweep.  Each cell runs its simulated threads one at a time in
// virtual-time order and output is assembled in the fixed sequential
// order, so every command prints the same bytes at any -jobs value and on
// every run.
// -plan is a fault plan (see internal/fault: e.g.
// "send:p=0.05;detach:node=1,at=5ms"); -seed picks the deterministic
// injection stream — the same plan and seed reproduce the same faults.
// `profile` attaches the virtual-time profiler to every cell and prints its
// span roll-up, hot-page and lock-contention tables, and per-barrier-epoch
// counter windows; with -o it also writes the merged per-thread timeline as
// Chrome trace-viewer / Perfetto JSON (load at https://ui.perfetto.dev).
// -top bounds the hot-page/lock/epoch rows (default 5).  -profile appends
// the same profile block to each `counters` or `faults` cell.  Profiling
// follows the observability invariance rule: it records spans and charges
// nothing, so attaching it moves no result.
// -scale, -gran, -contended-sync and -protocol fill the one
// bench.CellOptions that main passes to every cell sweep (fig5, fig6,
// fig5+6, counters, faults, profile, protocols and the fig5 part of all);
// `protocols` then sets each cell's protocol itself.  -contended-sync
// makes synchronization messages reserve NIC occupancy (sync traffic
// queues behind data traffic); it defaults off, reproducing the paper
// exactly.  -protocol selects the coherence protocol ("genima", the
// default, "commutative" or "delegate", see DESIGN.md §5e).  The variants
// deliberately change the wire schedule (and so virtual times); only the
// computed data (checksums) is invariant.  Tables 3–6 and limits always
// measure the paper's genima system, and `serve` takes every setting per
// sweep from its spec.
// `protocols` runs each app under all three protocols side by side and
// reports time, checksum, messages, bytes, and the profiler's lock-wait
// split — the comparison table of EXPERIMENTS.md §"Coherence protocols".
// `serve` runs the simulation farm: a long-running HTTP/JSON service
// (internal/farm, API reference in docs/SERVE.md) that accepts sweep specs,
// shards cells across a bounded worker pool, streams per-cell progress, and
// content-addresses results so identical cells across sweeps and clients
// are simulated exactly once.  -addr is the listen address, -cache-entries
// bounds the LRU result cache, -max-queue bounds admitted-but-unstarted
// cells; SIGTERM/SIGINT drain gracefully (in-flight cells complete, queued
// cells are rejected with a retriable status).  The farm exposes a
// Prometheus-format telemetry plane on GET /metrics plus a GET /readyz
// probe that flips to 503 once a drain begins (docs/OBSERVABILITY.md §4),
// and logs one structured record per request to stderr.
// `top` is the terminal companion: it polls a running farm's /metrics at
// -interval (against -addr) and prints qps, cell-latency p50/p95/p99,
// cache-hit ratio, queue depth, pool utilization, and per-protocol cell
// throughput — consuming only the standard exposition, nothing private.
// -n bounds the refresh count (0 polls until interrupted).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cables/internal/bench"
	"cables/internal/coherence"
	"cables/internal/farm"
	"cables/internal/fault"
	"cables/internal/profile"
	"cables/internal/wire"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	scale := fs.String("scale", "paper", `problem sizes: "test", "paper" or "full"`)
	fullSize := fs.Bool("full-size", false,
		`shorthand for -scale full: the paper testbed's actual SPLASH-2 problem sizes`)
	apps := fs.String("apps", "", "comma-separated application list (fig5/fig6)")
	procs := fs.String("procs", "", "comma-separated processor counts (fig5/fig6)")
	gran := fs.Int("gran", 0, "OS mapping granularity in bytes (default 64 KB)")
	out := fs.String("o", "", "profile: write the Perfetto/Chrome trace timeline to this file")
	jobs := fs.Int("jobs", bench.DefaultJobs(),
		"max concurrent simulation cells (1 = sequential; output is identical either way)")
	profileOn := fs.Bool("profile", false, "counters/faults: attach the virtual-time profiler and print each cell's profile block")
	top := fs.Int("top", 5, "profile: rows shown in the hot-page/lock-contention/epoch tables")
	planSpec := fs.String("plan", "", `faults: fault plan, e.g. "send:p=0.05;detach:node=1,at=5ms"`)
	seed := fs.Uint64("seed", 1, "faults: deterministic injection seed")
	addr := fs.String("addr", ":8080", "serve: HTTP listen address; top: farm base URL or host:port")
	interval := fs.Duration("interval", 2*time.Second, "top: poll interval")
	iters := fs.Int("n", 0, "top: number of refreshes (0 = until interrupted)")
	cacheEntries := fs.Int("cache-entries", 4096, "serve: content-addressed result cache bound (LRU entries)")
	maxQueue := fs.Int("max-queue", 65536, "serve: max admitted-but-unstarted cells before 503")
	contended := fs.Bool("contended-sync", false,
		"wire plane: synchronization messages reserve NIC occupancy (cell sweeps; tables and limits always run the paper's genima system)")
	protocol := fs.String("protocol", coherence.ProtoGenima,
		fmt.Sprintf("coherence protocol: %s (cell sweeps; tables and limits always run the paper's genima system; data checksums are identical, wire schedule differs)",
			strings.Join(coherence.Names(), "|")))
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if !coherence.Valid(*protocol) {
		fmt.Fprintf(os.Stderr, "cablesim: unknown protocol %q (have %v)\n", *protocol, coherence.Names())
		os.Exit(2)
	}
	sc := bench.Scale(*scale)
	if *fullSize {
		sc = bench.ScaleFull
	}
	if sc != bench.ScaleTest && sc != bench.ScalePaper && sc != bench.ScaleFull {
		fmt.Fprintf(os.Stderr, "cablesim: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	appList := splitList(*apps)
	procList := parseInts(*procs)
	mapGran, err := bench.CheckSweep(appList, procList, *gran)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cablesim: %v\n", err)
		os.Exit(2)
	}
	cell := bench.CellOptions{Scale: sc, Gran: mapGran,
		Wire: wire.Options{ContendedSync: *contended}, Protocol: *protocol}

	if cmd != "serve" && cmd != "top" && os.Getenv("GOGC") == "" {
		// A batch sweep's heap is mostly page frames: pointer-free 4 KB
		// arrays the collector marks for next to nothing, whose peak comes
		// and goes with the largest cells.  Collecting after 20% growth
		// instead of 100% keeps peak memory near the live frame set (fig5
		// at paper scale, two cells at a time on 2 CPUs: ~78 MB instead of
		// ~105 MB, ~10% more CPU).  The server keeps the default: its heap
		// is pointer-rich cached results, where the same setting costs a
		// cache hit ~30% more CPU.
		debug.SetGCPercent(20)
	}

	w := os.Stdout
	switch cmd {
	case "table3":
		bench.Table3(w)
	case "table4":
		bench.Table4(w)
	case "table5":
		bench.Table5(w, sc, *jobs)
	case "table6":
		bench.Table6(w, sc, *jobs)
	case "fig5":
		data := bench.RunFig5(appList, procList, cell, *jobs)
		bench.Fig5(w, data, procList)
	case "fig6":
		data := bench.RunFig5(appList, procList, cell, *jobs)
		bench.Fig6(w, data, procList)
	case "fig5+6":
		data := bench.RunFig5(appList, procList, cell, *jobs)
		bench.Fig5(w, data, procList)
		bench.Fig6(w, data, procList)
	case "protocols":
		p := 8
		if len(procList) > 0 {
			p = procList[0]
		}
		bench.RunProtocols(w, appList, p, cell, *jobs)
	case "limits":
		bench.Limits(w)
	case "counters":
		runCounters(w, appList, procList, cell, *jobs, *profileOn, *top)
	case "profile":
		runs := bench.RunProfile(w, appList, procList, cell, *jobs, *top)
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cablesim: profile: %v\n", err)
				os.Exit(1)
			}
			werr := profile.WriteTrace(f, bench.TraceCells(runs))
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintf(os.Stderr, "cablesim: profile: writing %s: %v\n", *out, werr)
				os.Exit(1)
			}
			fmt.Fprintf(w, "wrote %s\n", *out)
		}
		for _, r := range runs {
			if r.Err != nil {
				os.Exit(1)
			}
		}
	case "serve":
		logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
		srv := farm.New(farm.Config{Jobs: *jobs, CacheEntries: *cacheEntries, MaxQueue: *maxQueue,
			Logger: logger})
		hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
		drained := srv.DrainOnSignal(os.Interrupt, syscall.SIGTERM)
		go func() {
			// Wait for the drain (in-flight cells done, queued cells
			// rejected retriable), then close the listener so running
			// response streams finish cleanly.
			<-drained
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = hs.Shutdown(ctx)
		}()
		fmt.Fprintf(w, "cablesim serve: listening on %s (jobs=%d cache=%d queue=%d)\n",
			*addr, *jobs, *cacheEntries, *maxQueue)
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "cablesim: serve: %v\n", err)
			os.Exit(1)
		}
		<-drained
		fmt.Fprintln(w, "cablesim serve: drained")
	case "top":
		if err := runTop(w, *addr, *interval, *iters); err != nil {
			fmt.Fprintf(os.Stderr, "cablesim: top: %v\n", err)
			os.Exit(1)
		}
	case "faults":
		if *planSpec == "" {
			fmt.Fprintln(os.Stderr, "cablesim: faults needs -plan (see internal/fault for the spec language)")
			os.Exit(2)
		}
		plan, err := fault.ParsePlan(*planSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cablesim: %v\n", err)
			os.Exit(2)
		}
		cell.Plan, cell.Seed = plan, *seed
		profTop := 0
		if *profileOn {
			profTop = *top
		}
		bench.RunFaults(w, appList, procList, cell, *jobs, profTop)
	case "all":
		bench.Table3(w)
		bench.Table4(w)
		bench.Table5(w, sc, *jobs)
		bench.Table6(w, sc, *jobs)
		data := bench.RunFig5(appList, procList, cell, *jobs)
		bench.Fig5(w, data, procList)
		bench.Fig6(w, data, procList)
		bench.Limits(w)
	default:
		usage()
		os.Exit(2)
	}
}

// runCounters runs applications on both backends and dumps the system
// event counters — the protocol-level profile behind the figures.  Cells
// run up to jobs at a time and their blocks print in grid order.  With
// profileOn, each run also carries the virtual-time profiler and its
// profile block (top rows per table) is appended.  Every cell is
// configured by o.
func runCounters(w *os.File, apps []string, procs []int, o bench.CellOptions, jobs int, profileOn bool, top int) {
	// A non-genima protocol is labeled on every block so sweep output under
	// different protocols stays distinguishable.
	label := o.ProtocolLabel(" [protocol=%s]")
	if len(procs) == 0 {
		procs = []int{8}
	}
	runs := bench.Sweep(bench.Grid(apps, procs, o), bench.Attach{Profiler: profileOn}, jobs)
	for _, r := range runs {
		if r.Err != nil {
			fmt.Fprintf(w, "%s: FAILED: %v\n", r.Label(), r.Err)
			continue
		}
		fmt.Fprintf(w, "%s%s\n  %s\n", r.Res, label, r.Ctr)
		if r.Prof != nil {
			fmt.Fprint(w, bench.ProfileBlock(r.Prof, top))
		}
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseInts(s string) []int {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cablesim: bad processor count %q\n", p)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: cablesim <table3|counters|table4|table5|table6|fig5|fig6|fig5+6|protocols|limits|faults|profile|serve|top|all> [flags]
flags: -scale test|paper|full (-full-size)  -apps A,B  -procs 1,4,8  -gran bytes  -jobs N
       -profile (counters)  -plan "send:p=0.05;detach:node=1,at=5ms" -seed N -profile (faults)
       -top N -o trace.json (profile: Perfetto/Chrome trace-viewer timeline)
       -contended-sync -protocol genima|commutative|delegate (cell sweeps: fig5/fig6/counters/faults/profile/protocols;
                       tables and limits always run genima; checksums identical, wire schedule differs)
       -addr :8080 -cache-entries N -max-queue N (serve: the simulation farm, docs/SERVE.md)
       -addr :8080 -interval 2s -n N (top: live farm view scraped from /metrics, docs/OBSERVABILITY.md)`)
}
