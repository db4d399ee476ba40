package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"cables/internal/bench"
	"cables/internal/coherence"
	"cables/internal/fault"
)

// Spec is one experiment sweep request, the JSON body of POST /v1/sweeps.
// Every field is optional; zero values select the batch CLI's defaults.
// docs/SERVE.md is the authoritative schema reference (cmd/doccheck keeps
// it in lock-step with the routes and stats keys).
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
	// Protocol is the coherence protocol (coherence.Names); empty = the
	// serving process's default.  The resolved name is part of the cache
	// key.
	Protocol string `json:"protocol,omitempty"`
	// Gran overrides the OS mapping granularity in bytes (0 = the model's
	// 64 KB default).
	Gran int `json:"gran,omitempty"`
	// ContendedSync and Coalesce are the wire plane's opt-in modes
	// (`-contended-sync`, `-coalesce`).
	ContendedSync bool `json:"contendedSync,omitempty"`
	Coalesce      bool `json:"coalesce,omitempty"`
	// Plan is a fault plan in the internal/fault DSL; it is canonicalized
	// (parsed and re-rendered) before hashing, so equivalent spellings
	// share cache entries.
	Plan string `json:"plan,omitempty"`
	// Seed is the fault-injection seed.  With an empty Plan the seed is
	// code-irrelevant and is canonicalized to 0, so seed-only-different
	// fault-free sweeps share cache entries.
	Seed uint64 `json:"seed,omitempty"`
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
		s.Protocol = coherence.DefaultName()
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
		s.Plan = plan.String()
	} else {
		s.Seed = 0
	}
	return nil
}

// Cells expands the normalized spec into its cell keys in deterministic
// sweep order: apps outermost, then procs, then backends (the batch CLI's
// order, so assembled sweep responses line up with the figures).
func (s Spec) Cells() []CellKey {
	cells := make([]CellKey, 0, len(s.Apps)*len(s.Procs)*len(s.Backends))
	for _, app := range s.Apps {
		for _, p := range s.Procs {
			for _, b := range s.Backends {
				cells = append(cells, CellKey{
					App: app, Procs: p, Backend: b,
					Scale: s.Scale, Protocol: s.Protocol, Gran: s.Gran,
					ContendedSync: s.ContendedSync, Coalesce: s.Coalesce,
					Plan: s.Plan, Seed: s.Seed,
				})
			}
		}
	}
	return cells
}

// CellKey identifies one simulation cell by every input that can change its
// output — the unit of content addressing.  Two cells with equal keys are
// the same experiment: the farm simulates the first and serves every later
// one from cache, with the deterministic checksums proving the cached and
// fresh results identical.
type CellKey struct {
	App           string `json:"app"`
	Procs         int    `json:"procs"`
	Backend       string `json:"backend"`
	Scale         string `json:"scale"`
	Protocol      string `json:"protocol"`
	Gran          int    `json:"gran"`
	ContendedSync bool   `json:"contendedSync"`
	Coalesce      bool   `json:"coalesce"`
	Plan          string `json:"plan"`
	Seed          uint64 `json:"seed"`
}

// cacheSchema versions the canonical form.  Bump it when the meaning of any
// key field changes (or a new code-relevant field is added), so stale
// entries from an older serve build can never be mistaken for current ones.
const cacheSchema = "cables-farm-v2"

// Canonical renders the key as the canonical string that is hashed into the
// cache address: a fixed field order, every field present (defaults
// included), prefixed by the schema version.
func (k CellKey) Canonical() string {
	return fmt.Sprintf("%s|app=%s|procs=%d|backend=%s|scale=%s|gran=%d|contended=%t|coalesce=%t|plan=%s|seed=%d|protocol=%s",
		cacheSchema, k.App, k.Procs, k.Backend, k.Scale, k.Gran,
		k.ContendedSync, k.Coalesce, k.Plan, k.Seed, k.Protocol)
}

// Hash returns the cell's content address: the hex SHA-256 of Canonical().
func (k CellKey) Hash() string {
	sum := sha256.Sum256([]byte(k.Canonical()))
	return hex.EncodeToString(sum[:])
}
