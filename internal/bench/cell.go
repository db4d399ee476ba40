package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"

	"cables/internal/apps/appapi"
	"cables/internal/coherence"
	cables "cables/internal/core"
	"cables/internal/fault"
	"cables/internal/m4"
	"cables/internal/memsys"
	"cables/internal/profile"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/wire"
)

// CellOptions bundles every input one simulation cell carries beyond
// (app, backend, procs): the problem scale, the OS mapping granularity,
// the wire plane's opt-in mode, an optional fault plan and seed, and the
// coherence protocol.  It is the only way a cell's configuration reaches
// the simulator, so a cell is a pure function of its Cell.
// The zero value is the paper-faithful default cell: paper scale, 64 KB
// mapping units, genima, no faults.
type CellOptions struct {
	// Scale selects the problem sizes; empty runs paper scale.
	Scale Scale
	// Gran overrides the OS mapping granularity in bytes (-gran); 0 keeps
	// the model's 64 KB.
	Gran int
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

// ProtocolLabel renders a non-genima protocol through format (one %s, the
// protocol's name) and the genima default as "", so output swept under
// different protocols stays distinguishable while genima's reads as it
// always did.
func (o CellOptions) ProtocolLabel(format string) string {
	if o.Protocol == "" || o.Protocol == coherence.ProtoGenima {
		return ""
	}
	return fmt.Sprintf(format, o.Protocol)
}

// maxProcs bounds a cell's processor count; the paper sweep tops out at 32
// and the simulated SAN model is not meant to be scaled past this by a
// stray request.
const maxProcs = 64

// CheckSweep checks the sweep inputs a user names, for every front end
// (cablesim, the farm) alike: known applications, processor counts in
// [1, maxProcs], and a mapping granularity that is 0 (the model's default)
// or a power of two, as the memory system's segment alignment needs, and no
// smaller than a page, the finest unit a home can be bound at.  It
// returns gran with the model's default folded to 0, so both spellings of
// the default are one cell with one cache key.
func CheckSweep(apps []string, procs []int, gran int) (int, error) {
	for _, a := range apps {
		if !slices.Contains(AppNames, a) {
			return 0, fmt.Errorf("unknown application %q (have %v)", a, AppNames)
		}
	}
	for _, p := range procs {
		if p < 1 || p > maxProcs {
			return 0, fmt.Errorf("processor count %d out of range [1,%d]", p, maxProcs)
		}
	}
	if gran < 0 || gran&(gran-1) != 0 {
		return 0, fmt.Errorf("mapping granularity %d is not a power of two", gran)
	}
	if gran > 0 && gran < memsys.PageSize {
		return 0, fmt.Errorf("mapping granularity %d is below the %d-byte page", gran, memsys.PageSize)
	}
	if gran == defaultGran {
		gran = 0
	}
	return gran, nil
}

// defaultGran is the model's mapping granularity, which Gran 0 selects.
var defaultGran = sim.DefaultCosts().MapGranularity

// Attach selects the observers a cell run carries.  Observers record and
// charge nothing (the invariance rule), so they change no result and stay
// out of Cell, which is what the farm hashes.
type Attach struct {
	// Profiler attaches a virtual-time profiler (AttachProfiler).
	Profiler bool
}

// Cell identifies one simulation cell: an application on a backend at a
// processor count, configured by Opts.  It is the whole input of a run,
// and so also the simulation farm's content-addressed cache key (Hash).
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

// cacheSchema versions the canonical form.  Bump it when the meaning of any
// field changes (or a new result-changing field is added), so stale farm
// cache entries from an older build can never be mistaken for current ones.
const cacheSchema = "cables-farm-v5"

// Canonical renders the cell as the canonical string that is hashed into
// its cache address: a fixed field order, every field present (defaults
// included, as given), the plan in its canonical DSL form
// (fault.Plan.String), prefixed by the schema version.
func (c Cell) Canonical() string {
	return string(c.appendCanonical(make([]byte, 0, 128)))
}

// appendCanonical appends Canonical's bytes to b.  The farm runs it for
// every cell of every submitted sweep, so it builds the string with
// strconv appends rather than fmt.
func (c Cell) appendCanonical(b []byte) []byte {
	o := &c.Opts
	b = append(b, cacheSchema+"|app="...)
	b = append(b, c.App...)
	b = append(b, "|procs="...)
	b = strconv.AppendInt(b, int64(c.Procs), 10)
	b = append(b, "|backend="...)
	b = append(b, c.Backend...)
	b = append(b, "|scale="...)
	b = append(b, o.Scale...)
	b = append(b, "|gran="...)
	b = strconv.AppendInt(b, int64(o.Gran), 10)
	b = append(b, "|contended="...)
	b = strconv.AppendBool(b, o.Wire.ContendedSync)
	b = append(b, "|plan="...)
	b = append(b, o.Plan.String()...)
	b = append(b, "|seed="...)
	b = strconv.AppendUint(b, o.Seed, 10)
	b = append(b, "|protocol="...)
	return append(b, o.Protocol...)
}

// Hash returns the cell's content address: the hex SHA-256 of Canonical().
func (c Cell) Hash() string {
	var buf [160]byte
	sum := sha256.Sum256(c.appendCanonical(buf[:0]))
	return hex.EncodeToString(sum[:])
}

// Grid expands the paper's evaluation grid: every app (AppNames when apps
// is empty) at every processor count on both systems, genima before
// cables, each configured by o.
func Grid(apps []string, procs []int, o CellOptions) []Cell {
	if len(apps) == 0 {
		apps = AppNames
	}
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

// newRuntime builds an application runtime on the chosen backend with
// every per-cell option explicit; it is the single construction point.
// A nil costs runs the default cost table at o's mapping granularity; only
// the Linux-profile ablation passes a table of its own.
func newRuntime(backend string, procs int, arena int64, costs *sim.Costs, o CellOptions) appapi.Runtime {
	if costs == nil && o.Gran > 0 {
		costs = sim.DefaultCosts()
		costs.MapGranularity = o.Gran
	}
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

// RunCell runs cell c with the requested observers attached.  It is the
// harness's one cell runner: every sweep, the farm and the tests go
// through it.  Equal cells produce identical outputs (virtual times,
// checksums, placement censuses, counter totals), which is what makes the
// results safe to content-address (Cell.Hash) and serve from cache.
// Registration failures (the base system's NIC limits) surface as errors,
// exactly like the paper's OCEAN-at-32 case.
func RunCell(c Cell, a Attach) CellRun { return runCell(c, nil, a) }

// runCell is RunCell under an explicit cost table (nil: the defaults at
// c.Opts.Gran).
func runCell(c Cell, costs *sim.Costs, a Attach) CellRun {
	rt := newRuntime(c.Backend, c.Procs, 256<<20, costs, c.Opts)
	r := CellRun{Cell: c}
	if a.Profiler {
		r.Prof = AttachProfiler(rt)
	}
	r.Res, r.Err = runAppOn(rt, c.App, c.Opts.Scale)
	r.Ctr = rt.Cluster().Ctr
	return r
}

// Sweep runs cells up to jobs at a time (RunCells) with the observers a
// attached and returns their runs in cell order.  A cell that panics keeps
// its Cell and reports the panic as its Err; the rest of the sweep runs on.
func Sweep(cells []Cell, a Attach, jobs int) []CellRun {
	runs := make([]CellRun, len(cells))
	errs := RunCells(jobs, len(cells), func(i int) {
		runs[i] = RunCell(cells[i], a)
	})
	for i := range runs {
		if errs[i] != nil {
			runs[i] = CellRun{Cell: cells[i], Err: errs[i]}
		}
	}
	return runs
}

// RunAppCell and RunAppCellProfiled are the cell runner in the shape
// benchmark/probe.go calls.  They exist for the probe until the ROADMAP
// item "Catch the benchmark up" moves it onto RunCell.
func RunAppCell(name, backend string, procs int, scale Scale, costs *sim.Costs, o CellOptions) (appapi.Result, *stats.Counters, error) {
	o.Scale = scale
	r := runCell(Cell{App: name, Backend: backend, Procs: procs, Opts: o}, costs, Attach{})
	return r.Res, r.Ctr, r.Err
}

// RunAppCellProfiled is RunAppCell with a profiler attached; it too exists
// only for benchmark/probe.go.
func RunAppCellProfiled(name, backend string, procs int, scale Scale, costs *sim.Costs, o CellOptions) (appapi.Result, *stats.Counters, *profile.Profiler, error) {
	o.Scale = scale
	r := runCell(Cell{App: name, Backend: backend, Procs: procs, Opts: o}, costs, Attach{Profiler: true})
	return r.Res, r.Ctr, r.Prof, r.Err
}
