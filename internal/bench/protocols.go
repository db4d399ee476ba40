package bench

import (
	"fmt"
	"io"

	"cables/internal/coherence"
	"cables/internal/profile"
	"cables/internal/sim"
	"cables/internal/stats"
)

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
	var cells []Cell
	for _, app := range apps {
		for _, proto := range coherence.Names() {
			cells = append(cells, Cell{App: app, Backend: BackendGenima, Procs: procs,
				Opts: CellOptions{Protocol: proto}})
		}
	}
	runs := Sweep(cells, scale, costs, Attach{Profiler: true}, jobs)

	tab := stats.NewTable("Application", "Protocol", "Time", "Checksum",
		"Msgs", "KB", "LockWait", "Transfer", "HoldBlk", "Extra")
	for _, c := range runs {
		if c.Err != nil {
			tab.AddRow(c.App, c.Opts.Protocol, "FAILED", "-", "-", "-", "-", "-", "-",
				fmt.Sprintf("%v", c.Err))
			continue
		}
		var wait, transfer, holdBlk sim.Time
		for _, ls := range profile.Build(c.Prof.Logs()).Locks {
			wait += ls.Wait
			transfer += ls.Transfer
			holdBlk += ls.HoldBlocked
		}
		extra := ""
		if n := c.Ctr.Load(stats.EvCommMerges); n > 0 {
			extra = fmt.Sprintf("merges=%d", n)
		} else if n := c.Ctr.Load(stats.EvDelegations); n > 0 {
			extra = fmt.Sprintf("delegations=%d", n)
		}
		tab.AddRow(c.App, c.Opts.Protocol, c.Res.Parallel.String(),
			fmt.Sprintf("%08x", uint32(c.Res.Checksum)),
			fmt.Sprintf("%d", c.Ctr.Load(stats.EvMessagesSent)),
			fmt.Sprintf("%d", (c.Ctr.Load(stats.EvBytesSent)+c.Ctr.Load(stats.EvBytesFetched))>>10),
			wait.String(), transfer.String(), holdBlk.String(), extra)
	}
	if w != nil {
		fprintf(w, "Coherence protocols: %s backend, %d procs, scale %s\n%s",
			BackendGenima, procs, scale, tab)
	}
	return tab
}
