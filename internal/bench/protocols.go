package bench

import (
	"fmt"
	"io"

	"cables/internal/apps/appapi"
	"cables/internal/coherence"
	"cables/internal/profile"
	"cables/internal/sim"
	"cables/internal/stats"
)

// ProtocolCell is one (app, protocol) outcome of a protocol comparison
// sweep: the run's result plus the wire-traffic and lock-wait aggregates
// the three coherence protocols differ on.
type ProtocolCell struct {
	App      string
	Protocol string
	Res      appapi.Result
	Messages int64    // EvMessagesSent: control + data messages issued
	KBytes   int64    // EvBytesSent + EvBytesFetched, in KiB
	LockWait sim.Time // total contended lock wait across all locks
	Transfer sim.Time // wait spent on grant/state transfer (wire latency)
	HoldBlk  sim.Time // wait spent blocked behind the holder
	Merges   int64    // EvCommMerges (commutative)
	Delegs   int64    // EvDelegations (delegate)
	Err      error
}

// RunProtocols runs each app under every coherence protocol on the genima
// backend (the protocols are a genima-layer policy; the backend choice
// does not change the comparison) and renders the side-by-side table:
// virtual time, data checksum, messages, bytes, and the profiler's
// lock-wait split (total / transfer / hold-blocked).  The checksum column
// is the data-identity witness — all three protocols must compute the
// same answer.  jobs > 1 runs cells in parallel.
func RunProtocols(w io.Writer, apps []string, procs int, scale Scale, costs *sim.Costs, jobs int) *stats.Table {
	if len(apps) == 0 {
		apps = AppNames
	}
	if procs <= 0 {
		procs = 8
	}
	protos := coherence.Names()
	cells := make([]ProtocolCell, len(apps)*len(protos))
	errs := RunCells(jobs, len(cells), func(i int) {
		app, proto := apps[i/len(protos)], protos[i%len(protos)]
		c := &cells[i]
		c.App, c.Protocol = app, proto
		r := RunCell(app, BackendGenima, procs, scale, costs,
			CellOptions{Protocol: proto}, Attach{Profiler: true})
		c.Res, c.Err = r.Res, r.Err
		if r.Err != nil {
			return
		}
		c.Messages = r.Ctr.Load(stats.EvMessagesSent)
		c.KBytes = (r.Ctr.Load(stats.EvBytesSent) + r.Ctr.Load(stats.EvBytesFetched)) >> 10
		c.Merges = r.Ctr.Load(stats.EvCommMerges)
		c.Delegs = r.Ctr.Load(stats.EvDelegations)
		rep := profile.Build(r.Prof.Logs())
		for _, ls := range rep.Locks {
			c.LockWait += ls.Wait
			c.Transfer += ls.Transfer
			c.HoldBlk += ls.HoldBlocked
		}
	})

	tab := stats.NewTable("Application", "Protocol", "Time", "Checksum",
		"Msgs", "KB", "LockWait", "Transfer", "HoldBlk", "Extra")
	for i, c := range cells {
		if c.Err == nil && errs[i] != nil {
			c.Err = errs[i]
		}
		if c.Err != nil {
			tab.AddRow(c.App, c.Protocol, "FAILED", "-", "-", "-", "-", "-", "-",
				fmt.Sprintf("%v", c.Err))
			continue
		}
		extra := ""
		switch {
		case c.Merges > 0:
			extra = fmt.Sprintf("merges=%d", c.Merges)
		case c.Delegs > 0:
			extra = fmt.Sprintf("delegations=%d", c.Delegs)
		}
		tab.AddRow(c.App, c.Protocol, c.Res.Parallel.String(),
			fmt.Sprintf("%08x", uint32(c.Res.Checksum)),
			fmt.Sprintf("%d", c.Messages), fmt.Sprintf("%d", c.KBytes),
			c.LockWait.String(), c.Transfer.String(), c.HoldBlk.String(), extra)
	}
	if w != nil {
		fprintf(w, "Coherence protocols: %s backend, %d procs, scale %s\n%s",
			BackendGenima, procs, scale, tab)
	}
	return tab
}
