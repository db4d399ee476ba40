package bench

import (
	"fmt"
	"io"

	"cables/internal/apps/appapi"
	"cables/internal/coherence"
	"cables/internal/fault"
	"cables/internal/profile"
	"cables/internal/sim"
	"cables/internal/stats"
)

// FaultCell is one (app, procs, backend) outcome of a faulted sweep.
type FaultCell struct {
	Res      appapi.Result
	Ctr      *stats.Counters
	Injected int64 // fault firings observed by the cell's injector
	Report   *profile.Report
	Windows  []stats.EpochWindow
	Err      error
}

// faultEvents are the injection/recovery counters summarized per cell.
var faultEvents = []stats.Event{
	stats.EvFaultsInjected, stats.EvSendRetries, stats.EvFetchRetries,
	stats.EvNotifyLost, stats.EvRegRecoveries, stats.EvLockRehomes,
	stats.EvBarrierRehomes, stats.EvPageRehomes, stats.EvNodeDetaches,
	stats.EvAttachDelays,
}

// RunFaults runs the Figure 5 sweep under a fault plan and renders the
// outcome table: a cell completes DEGRADED (with its parallel time) when
// faults fired during it, FAILED only when the run did not complete, and a
// bare time when the plan never triggered in that cell.  Every cell gets
// its own injector built from the same plan+seed (o.Fault is replaced), so
// cells are independent and the whole table is reproducible from (plan,
// seed, o).  profTop > 0 attaches a profiler to every cell and appends its
// profile block (top profTop rows) under the cell's census.
func RunFaults(w io.Writer, plan fault.Plan, seed uint64, apps []string, procs []int, scale Scale, costs *sim.Costs, o CellOptions, jobs, profTop int) *stats.Table {
	if len(apps) == 0 {
		apps = AppNames
	}
	if len(procs) == 0 {
		procs = ProcCounts
	}
	specs := fig5Cells(apps, procs)
	cells := make([]FaultCell, len(specs))
	errs := RunCells(jobs, len(specs), func(i int) {
		s := specs[i]
		co := o
		co.Fault = fault.New(plan, seed)
		r := RunCell(s.app, s.backend, s.procs, scale, costs, co, Attach{Profiler: profTop > 0})
		c := &cells[i]
		c.Res, c.Ctr, c.Err = r.Res, r.Ctr, r.Err
		if r.Prof != nil {
			c.Report = profile.Build(r.Prof.Logs())
			c.Windows = r.Prof.Epochs.Windows()
		}
		c.Injected = co.Fault.Injected()
	})

	header := []string{"Application", "System"}
	for _, p := range procs {
		header = append(header, fmt.Sprintf("%dp", p))
	}
	tab := stats.NewTable(header...)
	byCell := make(map[string]FaultCell, len(specs))
	for i, s := range specs {
		c := cells[i]
		if errs[i] != nil && c.Err == nil {
			c.Err = errs[i]
		}
		byCell[fmt.Sprintf("%s/%d/%s", s.app, s.procs, s.backend)] = c
	}
	for _, app := range apps {
		for _, backend := range []string{BackendGenima, BackendCables} {
			row := []string{app, backend}
			for _, p := range procs {
				c := byCell[fmt.Sprintf("%s/%d/%s", app, p, backend)]
				switch {
				case c.Err != nil:
					row = append(row, "FAILED")
				case c.Injected > 0:
					row = append(row, fmt.Sprintf("DEGRADED(%v)", c.Res.Parallel))
				default:
					row = append(row, c.Res.Parallel.String())
				}
			}
			tab.AddRow(row...)
		}
	}
	// Label a non-genima protocol, so DEGRADED cells from different
	// protocol sweeps stay distinguishable.
	label := ""
	if o.Protocol != "" && o.Protocol != coherence.ProtoGenima {
		label = " protocol=" + o.Protocol
	}
	if w != nil {
		fprintf(w, "Fault sweep: plan %q seed %d%s\n%s\n", plan, seed, label, tab)
		for _, app := range apps {
			for _, p := range procs {
				for _, backend := range []string{BackendGenima, BackendCables} {
					c := byCell[fmt.Sprintf("%s/%d/%s", app, p, backend)]
					if c.Err != nil || c.Ctr == nil {
						continue
					}
					line := ""
					for _, e := range faultEvents {
						if v := c.Ctr.Load(e); v != 0 {
							line += fmt.Sprintf(" %s=%d", e, v)
						}
					}
					fprintf(w, "%s/%s%s p=%d:%s\n", app, backend, label, p, line)
					if c.Report != nil {
						fprintf(w, "%s", ProfileBlock(c.Report, c.Windows, profTop))
					}
				}
			}
		}
	}
	return tab
}
