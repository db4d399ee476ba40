package bench

import (
	"cables/internal/apps/appapi"
	cables "cables/internal/core"
	"cables/internal/fault"
	"cables/internal/m4"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/wire"
)

// CellOptions bundles every code-relevant knob one simulation cell can
// carry beyond (app, backend, procs, scale, costs): the wire plane's opt-in
// modes, an optional fault injector and the coherence protocol.
// The zero value reproduces the paper-faithful default cell exactly, so
// NewRuntimeWire and NewFaultRuntime are thin wrappers over NewRuntimeOpts.
// The simulation farm (internal/farm) canonicalizes these fields into its
// content-addressed cache key.
type CellOptions struct {
	// Wire selects the wire plane's opt-in modes (-contended-sync,
	// -coalesce).
	Wire wire.Options
	// Fault optionally injects deterministic faults (see internal/fault).
	Fault *fault.Injector
	// Protocol names the coherence policy (coherence.Names); empty selects
	// the process default (CABLES_PROTOCOL / `cablesim -protocol`).
	Protocol string
}

// NewRuntimeOpts builds an application runtime on the chosen backend with
// every per-cell option explicit.  It is the single construction point the
// other NewRuntime* helpers delegate to.
func NewRuntimeOpts(backend string, procs int, arena int64, costs *sim.Costs, o CellOptions) appapi.Runtime {
	switch backend {
	case BackendGenima:
		return m4.New(m4.Config{Procs: procs, ProcsPerNode: 2, ArenaBytes: arena,
			Costs: costs, Wire: o.Wire, Fault: o.Fault, Protocol: o.Protocol})
	case BackendCables:
		return cables.NewM4(cables.M4Config{Procs: procs, ProcsPerNode: 2, ArenaBytes: arena,
			Costs: costs, Wire: o.Wire, Fault: o.Fault, Protocol: o.Protocol})
	default:
		panic("bench: unknown backend " + backend)
	}
}

// RunAppCell runs one (app, backend, procs) cell with explicit per-cell
// options and returns the result plus the run's event counters.  This is
// the farm's cell entry point: identical arguments produce identical
// deterministic outputs (checksums, placement censuses, counter totals up
// to documented scheduling jitter), which is what makes the results safe to
// content-address and serve from cache.
func RunAppCell(name, backend string, procs int, scale Scale, costs *sim.Costs, o CellOptions) (appapi.Result, *stats.Counters, error) {
	rt := NewRuntimeOpts(backend, procs, 256<<20, costs, o)
	res, err := runAppOn(rt, name, scale)
	return res, rt.Cluster().Ctr, err
}
