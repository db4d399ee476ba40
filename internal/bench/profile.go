package bench

import (
	"fmt"
	"io"
	"strings"

	"cables/internal/apps/appapi"
	"cables/internal/profile"
	"cables/internal/sim"
	"cables/internal/stats"
)

// AttachProfiler wires a fresh virtual-time profiler to a runtime: every
// task the cluster creates from here on is adopted (nodeos.Cluster.Prof),
// the already-existing main task is adopted explicitly, and the
// profiler's stats.EpochLog snapshots the counters at every barrier
// release (the barrier reaches it through the same Cluster.Prof).  This is
// the single attach point; call it before the run starts.  Attaching
// records spans and charges nothing — the invariance rule — so results
// are identical with and without a profiler (TestProfilerInvariance).
func AttachProfiler(rt appapi.Runtime) *profile.Profiler {
	prof := profile.New()
	cl := rt.Cluster()
	cl.Prof = prof
	prof.Adopt(rt.Main())
	prof.Epochs = stats.NewEpochLog(cl.Ctr)
	return prof
}

// RunProfile runs the profiled sweep (`cablesim profile`): every cell gets
// a profiler, and its category roll-up, hot-page and lock-contention
// tables, and per-barrier-epoch counter windows print per cell.  top
// bounds the hot-page/lock/epoch rows (<=0 means the default 5).  The
// returned runs carry the profilers for a timeline export (TraceCells).
// Every cell is configured by o.
func RunProfile(w io.Writer, apps []string, procs []int, o CellOptions, jobs, top int) []CellRun {
	if len(procs) == 0 {
		procs = []int{8}
	}
	runs := Sweep(Grid(apps, procs, o), Attach{Profiler: true}, jobs)
	if w != nil {
		for _, c := range runs {
			if c.Err != nil {
				fprintf(w, "%s: FAILED: %v\n", c.Label(), c.Err)
				continue
			}
			fprintf(w, "%s\n%s", c.Res, ProfileBlock(c.Prof, top))
		}
	}
	return runs
}

// ProfileBlock renders one profiled cell: the per-span-kind category
// roll-up with its reconciliation check, the hottest pages, the most
// contended locks, and the per-barrier-epoch counter windows.  Shared by
// `cablesim profile` and the -profile flag on counters/faults.  Call only
// after the cell's run has quiesced.
func ProfileBlock(prof *profile.Profiler, top int) string {
	if top <= 0 {
		top = 5
	}
	r := profile.Build(prof.Logs())
	windows := prof.Epochs.Windows()
	var b strings.Builder
	fmt.Fprintf(&b, "  profile: tasks=%d spans=%d", len(r.Tasks), spanCount(r))
	if r.Anomalies > 0 {
		fmt.Fprintf(&b, " anomalies=%d", r.Anomalies)
	}
	b.WriteByte('\n')

	total := r.Total.Total()
	for k := 0; k < profile.NumSpanKinds; k++ {
		kt := &r.Kinds[k]
		if kt.Count == 0 {
			continue
		}
		self := kt.Self.Total()
		share := 0.0
		if total > 0 {
			share = 100 * float64(self) / float64(total)
		}
		fmt.Fprintf(&b, "    %-8s n=%-7d self=%-10v %5.1f%%  [%s]\n",
			profile.SpanKind(k), kt.Count, self, share, kt.Self)
	}
	sum := r.KindSum()
	status := "ok"
	if sum != r.Total {
		status = fmt.Sprintf("MISMATCH spans=%v", sum)
	}
	fmt.Fprintf(&b, "  reconcile: tasks=%v spans=%v %s\n", r.Total.Total(), sum.Total(), status)

	if n := min(top, len(r.Pages)); n > 0 {
		fmt.Fprintf(&b, "  hot pages (top %d of %d, fault stall %v):\n", n, len(r.Pages), r.FaultTime())
		for _, ps := range r.Pages[:n] {
			fmt.Fprintf(&b, "    page=0x%-6x faults=%-5d fills=%-5d diffs=%-5d migrations=%-3d stall=%-10v max=%v\n",
				ps.Page, ps.Faults, ps.Fills, ps.Diffs, ps.Migrations, ps.Stall, ps.MaxStall)
		}
	}
	if n := min(top, len(r.Locks)); n > 0 {
		fmt.Fprintf(&b, "  locks (top %d of %d):\n", n, len(r.Locks))
		for _, ls := range r.Locks[:n] {
			fmt.Fprintf(&b, "    lock=%-6d acq=%-5d contended=%-5d remote=%-5d wait=%-10v (transfer=%v holdblk=%v max=%v) hold=%v\n",
				ls.Lock, ls.Acquires, ls.Contended, ls.Remote, ls.Wait,
				ls.Transfer, ls.HoldBlocked, ls.MaxWait, ls.Hold)
		}
	}
	if len(windows) > 0 {
		n := min(top, len(windows))
		fmt.Fprintf(&b, "  epochs (%d; first %d):\n", len(windows), n)
		for _, ep := range windows[:n] {
			fmt.Fprintf(&b, "    %-12s @%-10v %s\n", ep.Label, sim.Time(ep.At), ep.Delta)
		}
	}
	return b.String()
}

func spanCount(r *profile.Report) int {
	n := 0
	for i := range r.Kinds {
		n += r.Kinds[i].Count
	}
	return n
}

// TraceCells converts profiled sweep runs into the exporter's shape,
// skipping failed and unprofiled runs.
func TraceCells(runs []CellRun) []profile.TraceCell {
	out := make([]profile.TraceCell, 0, len(runs))
	for _, c := range runs {
		if c.Err != nil || c.Prof == nil {
			continue
		}
		if logs := c.Prof.Logs(); len(logs) > 0 {
			out = append(out, profile.TraceCell{Label: c.Label(), Logs: logs})
		}
	}
	return out
}
