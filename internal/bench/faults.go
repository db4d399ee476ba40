package bench

import (
	"fmt"
	"io"

	"cables/internal/stats"
)

// faultEvents are the injection/recovery counters summarized per cell.
var faultEvents = []stats.Event{
	stats.EvFaultsInjected, stats.EvSendRetries, stats.EvFetchRetries,
	stats.EvNotifyLost, stats.EvRegRecoveries, stats.EvLockRehomes,
	stats.EvBarrierRehomes, stats.EvPageRehomes, stats.EvNodeDetaches,
	stats.EvAttachDelays,
}

// RunFaults runs the Figure 5 sweep under o's fault plan and renders the
// outcome table: a cell completes DEGRADED (with its parallel time) when
// faults fired during it, FAILED only when the run did not complete, and a
// bare time when the plan never triggered in that cell.  Every cell builds
// its own injector from o.Plan and o.Seed, so cells are independent and the
// whole table is reproducible from o.  profTop > 0 attaches a profiler to
// every cell and appends its profile block (top profTop rows) under the
// cell's census.
func RunFaults(w io.Writer, apps []string, procs []int, o CellOptions, jobs, profTop int) *stats.Table {
	if len(apps) == 0 {
		apps = AppNames
	}
	if len(procs) == 0 {
		procs = ProcCounts
	}
	runs := Sweep(Grid(apps, procs, o), Attach{Profiler: profTop > 0}, jobs)

	tab := systemTable(runs, apps, procs, func(c CellRun) string {
		switch {
		case c.Err != nil:
			return "FAILED"
		case c.Ctr.Load(stats.EvFaultsInjected) > 0:
			return fmt.Sprintf("DEGRADED(%v)", c.Res.Parallel)
		}
		return c.Res.Parallel.String()
	})
	// Label a non-genima protocol, so DEGRADED cells from different
	// protocol sweeps stay distinguishable.
	label := o.ProtocolLabel(" protocol=%s")
	if w != nil {
		fprintf(w, "Fault sweep: plan %q seed %d%s\n%s\n", o.Plan, o.Seed, label, tab)
		for _, c := range runs {
			if c.Err != nil {
				continue
			}
			line := ""
			for _, e := range faultEvents {
				if v := c.Ctr.Load(e); v != 0 {
					line += fmt.Sprintf(" %s=%d", e, v)
				}
			}
			fprintf(w, "%s/%s%s p=%d:%s\n", c.App, c.Backend, label, c.Procs, line)
			if c.Prof != nil {
				fprintf(w, "%s", ProfileBlock(c.Prof, profTop))
			}
		}
	}
	return tab
}
