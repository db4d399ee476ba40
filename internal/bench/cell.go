package bench

import (
	"fmt"

	"cables/internal/apps/appapi"
	cables "cables/internal/core"
	"cables/internal/fault"
	"cables/internal/m4"
	"cables/internal/profile"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/wire"
)

// CellOptions bundles every code-relevant knob one simulation cell can
// carry beyond (app, backend, procs, scale, costs): the wire plane's opt-in
// mode, an optional fault plan and seed, and the coherence protocol.  It is the
// only way a cell's configuration reaches the simulator, so a cell is a
// pure function of its arguments.
// The zero value reproduces the paper-faithful default cell exactly.
// The simulation farm (internal/farm) canonicalizes these fields into its
// content-addressed cache key.
type CellOptions struct {
	// Wire selects the wire plane's opt-in mode (-contended-sync).
	Wire wire.Options
	// Plan and Seed build the cell's own fault injector (see
	// internal/fault); a plan without rules injects nothing.
	Plan fault.Plan
	Seed uint64
	// Protocol names the coherence policy (coherence.Names); empty selects
	// genima.
	Protocol string
}

// Attach selects the observers a cell run carries.  Observers record and
// charge nothing (the invariance rule), so they change no result and stay
// out of CellOptions, which is what the farm hashes.
type Attach struct {
	// Profiler attaches a virtual-time profiler (AttachProfiler).
	Profiler bool
}

// Cell identifies one simulation cell: an application on a backend at a
// processor count, configured by Opts.
type Cell struct {
	App     string
	Backend string
	Procs   int
	Opts    CellOptions
}

// Label renders the cell in the harness's usual "APP/backend p=N" shape.
func (c Cell) Label() string {
	return fmt.Sprintf("%s/%s p=%d", c.App, c.Backend, c.Procs)
}

// Grid expands the paper's evaluation grid: every app at every processor
// count on both systems, genima before cables, each configured by o.
func Grid(apps []string, procs []int, o CellOptions) []Cell {
	cells := make([]Cell, 0, len(apps)*len(procs)*2)
	for _, app := range apps {
		for _, p := range procs {
			for _, backend := range []string{BackendGenima, BackendCables} {
				cells = append(cells, Cell{App: app, Backend: backend, Procs: p, Opts: o})
			}
		}
	}
	return cells
}

// CellRun is one cell's outcome: the cell it ran, the application result,
// the run's event counters, and the attached observers (nil unless
// requested).
type CellRun struct {
	Cell
	Res  appapi.Result
	Ctr  *stats.Counters
	Prof *profile.Profiler
	Err  error
}

// NewRuntimeOpts builds an application runtime on the chosen backend with
// every per-cell option explicit.  It is the single construction point;
// RunCell uses it, and tests that drive custom workloads call it directly.
func NewRuntimeOpts(backend string, procs int, arena int64, costs *sim.Costs, o CellOptions) appapi.Runtime {
	var inj *fault.Injector
	if len(o.Plan.Rules) > 0 {
		inj = fault.New(o.Plan, o.Seed)
	}
	switch backend {
	case BackendGenima:
		return m4.New(m4.Config{Procs: procs, ProcsPerNode: 2, ArenaBytes: arena,
			Costs: costs, Wire: o.Wire, Fault: inj, Protocol: o.Protocol})
	case BackendCables:
		return cables.NewM4(cables.M4Config{Procs: procs, ProcsPerNode: 2, ArenaBytes: arena,
			Costs: costs, Wire: o.Wire, Fault: inj, Protocol: o.Protocol})
	default:
		panic("bench: unknown backend " + backend)
	}
}

// RunCell runs one (app, backend, procs) cell with explicit per-cell
// options and the requested observers attached.  It is the harness's one
// cell runner: every sweep, the farm and the tests go through it.
// Identical arguments produce identical outputs (virtual times, checksums,
// placement censuses, counter totals), which is what makes the results
// safe to content-address and serve from cache.  Registration failures (the base system's NIC limits) surface as
// errors, exactly like the paper's OCEAN-at-32 case.
func RunCell(name, backend string, procs int, scale Scale, costs *sim.Costs, o CellOptions, a Attach) CellRun {
	rt := NewRuntimeOpts(backend, procs, 256<<20, costs, o)
	r := CellRun{Cell: Cell{App: name, Backend: backend, Procs: procs, Opts: o}}
	if a.Profiler {
		r.Prof = AttachProfiler(rt)
	}
	r.Res, r.Err = runAppOn(rt, name, scale)
	r.Ctr = rt.Cluster().Ctr
	return r
}

// Sweep runs cells up to jobs at a time (RunCells) with the observers a
// attached and returns their runs in cell order.  A cell that panics keeps
// its Cell and reports the panic as its Err; the rest of the sweep runs on.
func Sweep(cells []Cell, scale Scale, costs *sim.Costs, a Attach, jobs int) []CellRun {
	runs := make([]CellRun, len(cells))
	errs := RunCells(jobs, len(cells), func(i int) {
		c := cells[i]
		runs[i] = RunCell(c.App, c.Backend, c.Procs, scale, costs, c.Opts, a)
	})
	for i := range runs {
		if errs[i] != nil {
			runs[i] = CellRun{Cell: cells[i], Err: errs[i]}
		}
	}
	return runs
}

// RunAppCell is RunCell with no observers, returning the result and the
// run's event counters.
func RunAppCell(name, backend string, procs int, scale Scale, costs *sim.Costs, o CellOptions) (appapi.Result, *stats.Counters, error) {
	r := RunCell(name, backend, procs, scale, costs, o, Attach{})
	return r.Res, r.Ctr, r.Err
}

// RunAppCellProfiled is RunCell with a profiler attached.
func RunAppCellProfiled(name, backend string, procs int, scale Scale, costs *sim.Costs, o CellOptions) (appapi.Result, *stats.Counters, *profile.Profiler, error) {
	r := RunCell(name, backend, procs, scale, costs, o, Attach{Profiler: true})
	return r.Res, r.Ctr, r.Prof, r.Err
}
