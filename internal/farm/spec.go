package farm

import (
	"fmt"

	"cables/internal/bench"
	"cables/internal/coherence"
	"cables/internal/fault"
	"cables/internal/wire"
)

// Spec is one experiment sweep request, the JSON body of POST /v1/sweeps.
// Every field is optional; zero values select the batch CLI's defaults.
// docs/SERVE.md is the authoritative schema reference (cmd/doccheck keeps
// it in lock-step with the routes).
type Spec struct {
	// Kind selects the artifact the cells feed: "fig5" (default, results
	// only), "fig6" (same cells; clients read the misplacement fields) or
	// "counters" (per-cell responses also carry the counter snapshot).
	// Kind changes only the response rendering, never the simulation, so it
	// is deliberately NOT part of the cache key.
	Kind string `json:"kind,omitempty"`
	// Apps are SPLASH-2 application names (bench.AppNames); empty = all.
	Apps []string `json:"apps,omitempty"`
	// Procs are processor counts; empty = the paper sweep {1,4,8,16,32}.
	Procs []int `json:"procs,omitempty"`
	// Backends are SVM systems ("genima", "cables"); empty = both.
	Backends []string `json:"backends,omitempty"`
	// Scale is the problem-size class: "test", "paper" (default), "full".
	Scale string `json:"scale,omitempty"`
	// Protocol is the coherence protocol (coherence.Names); empty =
	// genima.  The resolved name is part of the cache key.
	Protocol string `json:"protocol,omitempty"`
	// Gran overrides the OS mapping granularity in bytes (0 = the model's
	// 64 KB default).
	Gran int `json:"gran,omitempty"`
	// ContendedSync is the wire plane's opt-in mode (`-contended-sync`).
	ContendedSync bool `json:"contendedSync,omitempty"`
	// Plan is a fault plan in the internal/fault DSL; it is canonicalized
	// (parsed and re-rendered) before hashing, so equivalent spellings
	// share cache entries.
	Plan string `json:"plan,omitempty"`
	// Seed is the fault-injection seed.  With an empty Plan the seed is
	// code-irrelevant and is canonicalized to 0, so seed-only-different
	// fault-free sweeps share cache entries.
	Seed uint64 `json:"seed,omitempty"`

	// plan is Plan as Normalize parsed it; Cells hands it to every cell.
	plan fault.Plan
}

// specKinds are the accepted Kind values.
var specKinds = map[string]bool{"fig5": true, "fig6": true, "counters": true}

// maxProcs bounds a cell's processor count; the paper sweep tops out at 32
// and the simulated SAN model is not meant to be scaled past this by a
// stray request.
const maxProcs = 64

// Normalize validates s and fills every defaulted field in place, so the
// spec echoed back to the client states exactly what will run.  It also
// performs the canonicalizations the cache key relies on: the fault plan is
// re-rendered in canonical DSL form and the seed is zeroed when no plan is
// set.
func (s *Spec) Normalize() error {
	if s.Kind == "" {
		s.Kind = "fig5"
	}
	if !specKinds[s.Kind] {
		return fmt.Errorf("farm: unknown kind %q (have fig5, fig6, counters)", s.Kind)
	}
	if len(s.Apps) == 0 {
		s.Apps = append([]string(nil), bench.AppNames...)
	}
	known := make(map[string]bool, len(bench.AppNames))
	for _, a := range bench.AppNames {
		known[a] = true
	}
	for _, a := range s.Apps {
		if !known[a] {
			return fmt.Errorf("farm: unknown application %q (have %v)", a, bench.AppNames)
		}
	}
	if len(s.Procs) == 0 {
		s.Procs = append([]int(nil), bench.ProcCounts...)
	}
	for _, p := range s.Procs {
		if p < 1 || p > maxProcs {
			return fmt.Errorf("farm: processor count %d out of range [1,%d]", p, maxProcs)
		}
	}
	if len(s.Backends) == 0 {
		s.Backends = []string{bench.BackendGenima, bench.BackendCables}
	}
	for _, b := range s.Backends {
		if b != bench.BackendGenima && b != bench.BackendCables {
			return fmt.Errorf("farm: unknown backend %q (have %s, %s)",
				b, bench.BackendGenima, bench.BackendCables)
		}
	}
	if s.Scale == "" {
		s.Scale = string(bench.ScalePaper)
	}
	switch bench.Scale(s.Scale) {
	case bench.ScaleTest, bench.ScalePaper, bench.ScaleFull:
	default:
		return fmt.Errorf("farm: unknown scale %q (have test, paper, full)", s.Scale)
	}
	if s.Protocol == "" {
		s.Protocol = coherence.ProtoGenima
	}
	if !coherence.Valid(s.Protocol) {
		return fmt.Errorf("farm: unknown coherence protocol %q (have %v)", s.Protocol, coherence.Names())
	}
	if s.Gran < 0 {
		return fmt.Errorf("farm: negative mapping granularity %d", s.Gran)
	}
	if s.Plan != "" {
		plan, err := fault.ParsePlan(s.Plan)
		if err != nil {
			return fmt.Errorf("farm: bad fault plan: %v", err)
		}
		s.plan, s.Plan = plan, plan.String()
	} else {
		s.Seed = 0
	}
	return nil
}

// numCells is the number of cells the normalized spec expands to (Cells
// keeps duplicate list entries, so this is the plain product).  Admission
// checks it against the queue bound before allocating the expansion.
func (s Spec) numCells() int { return len(s.Apps) * len(s.Procs) * len(s.Backends) }

// Cells expands the normalized spec into its cells in deterministic sweep
// order: apps outermost, then procs, then backends.  The order matches
// bench.Grid, so assembled sweep responses line up with the batch figures.
// Each cell carries the plan Normalize parsed; its Hash is the cell's
// cache address.
func (s Spec) Cells() []bench.Cell {
	o := bench.CellOptions{Scale: bench.Scale(s.Scale), Gran: s.Gran, Plan: s.plan, Seed: s.Seed,
		Wire: wire.Options{ContendedSync: s.ContendedSync}, Protocol: s.Protocol}
	cells := make([]bench.Cell, 0, s.numCells())
	for _, app := range s.Apps {
		for _, p := range s.Procs {
			for _, b := range s.Backends {
				cells = append(cells, bench.Cell{App: app, Backend: b, Procs: p, Opts: o})
			}
		}
	}
	return cells
}

// CellKey is the farm's former name for a cell.  It exists for
// benchmark/probe.go, which builds one to time the cache, until the
// ROADMAP item "Catch the benchmark up" moves the probe onto bench.Cell.
type CellKey = bench.Cell
