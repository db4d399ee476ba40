package bench

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"cables/internal/apps/appapi"
	cables "cables/internal/core"
	"cables/internal/m4"
	"cables/internal/memsys"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/vmmc"
)

// RunFig5 executes the Figure 5 sweep (every SPLASH-2 application on both
// systems across the processor counts) with every cell configured by o,
// and returns the runs in Grid order; Fig5 and Fig6 format them.  Up to
// jobs cells run concurrently on the host; each cell is an independent
// simulation, so the runs are identical for any jobs value (jobs <= 1 runs
// the sweep sequentially).
func RunFig5(apps []string, procs []int, o CellOptions, jobs int) []CellRun {
	if len(procs) == 0 {
		procs = ProcCounts
	}
	return Sweep(Grid(apps, procs, o), Attach{}, jobs)
}

// runAt returns the run of cell (app, backend, procs), or the zero CellRun
// when the sweep did not run that cell.
func runAt(runs []CellRun, app, backend string, procs int) CellRun {
	for _, r := range runs {
		if r.App == app && r.Backend == backend && r.Procs == procs {
			return r
		}
	}
	return CellRun{}
}

// sweptApps returns AppNames filtered to the apps runs cover, in AppNames
// order (the figures' row order).
func sweptApps(runs []CellRun) []string {
	var apps []string
	for _, app := range AppNames {
		if slices.ContainsFunc(runs, func(r CellRun) bool { return r.App == app }) {
			apps = append(apps, app)
		}
	}
	return apps
}

// Fig5 prints the Figure 5 series: execution time of the parallel section
// for the original SVM system (M4) and for CableS (M4 on pthreads), per
// processor count.  A registration failure prints as FAILED — the paper's
// OCEAN-at-32-processors case on the base system.
func Fig5(w io.Writer, runs []CellRun, procs []int) *stats.Table {
	if len(procs) == 0 {
		procs = ProcCounts
	}
	header := []string{"Application", "System"}
	for _, p := range procs {
		header = append(header, fmt.Sprintf("%dp", p))
	}
	tab := stats.NewTable(header...)
	for _, app := range sweptApps(runs) {
		for _, backend := range []string{BackendGenima, BackendCables} {
			row := []string{app, backend}
			for _, p := range procs {
				cell := runAt(runs, app, backend, p)
				switch {
				case cell.Err != nil:
					row = append(row, "FAILED")
				default:
					row = append(row, cell.Res.Parallel.String())
				}
			}
			tab.AddRow(row...)
		}
	}
	if w != nil {
		fprintf(w, "Figure 5: SPLASH-2 parallel-section time, M4 (genima) vs M4-pthreads (cables)\n%s\n", tab)
	}
	return tab
}

// Fig6 prints the Figure 6 series: the percentage of pages CableS places on
// a different home than the base system's per-page first touch, per
// application and processor count.  The map-unit granularity the runs'
// cells ran at (Opts.Gran, the default 64 KB when unset) titles the figure.
func Fig6(w io.Writer, runs []CellRun, procs []int) *stats.Table {
	if len(procs) == 0 {
		procs = ProcCounts
	}
	header := []string{"Application"}
	for _, p := range procs {
		header = append(header, fmt.Sprintf("%dp", p))
	}
	tab := stats.NewTable(header...)
	for _, app := range sweptApps(runs) {
		row := []string{app}
		for _, p := range procs {
			cell := runAt(runs, app, BackendCables, p)
			if cell.Err != nil {
				row = append(row, "FAILED")
			} else {
				row = append(row, fmt.Sprintf("%.1f%%", cell.Res.MisplacedPct()))
			}
		}
		tab.AddRow(row...)
	}
	if w != nil {
		gran := sim.DefaultCosts().MapGranularity
		if len(runs) > 0 && runs[0].Opts.Gran > 0 {
			gran = runs[0].Opts.Gran
		}
		fprintf(w, "Figure 6: %% pages misplaced by CableS (%s map-unit first touch)\n%s\n",
			granString(gran), tab)
	}
	return tab
}

// granString renders a mapping granularity in bytes as "64 KB" when it is
// a whole number of KB, else as "N B".
func granString(gran int) string {
	if gran%1024 == 0 {
		return fmt.Sprintf("%d KB", gran/1024)
	}
	return fmt.Sprintf("%d B", gran)
}

// Limits demonstrates Tables 1 and 2: which SAN registration limits bind
// the base SVM system and which bind CableS.
func Limits(w io.Writer) *stats.Table {
	tab := stats.NewTable("Scenario", "Base SVM (GeNIMA)", "CableS")

	// Scenario 1: many shared segments on a 16-node system.  The base
	// system registers each segment on every node (regions ~ S x N); CableS
	// uses one growing protocol region per node.
	baseSegs := func() (int, error) {
		rt := m4.New(m4.Config{Procs: 32, ProcsPerNode: 2, ArenaBytes: 64 << 20})
		for i := 0; i < 60; i++ {
			if _, err := rt.Malloc(rt.Main(), "seg", 256<<10); err != nil {
				return i, err
			}
		}
		return 60, nil
	}
	cablesSegs := func() (int, error) {
		rt := cables.NewM4(cables.M4Config{Procs: 32, ProcsPerNode: 2, ArenaBytes: 64 << 20})
		for i := 0; i < 60; i++ {
			a, err := rt.Malloc(rt.Main(), "seg", 256<<10)
			if err != nil {
				return i, err
			}
			rt.Acc().WriteI64(rt.Main(), a, 1) // bind the home
		}
		return 60, nil
	}
	bn, berr := baseSegs()
	cn, cerr := cablesSegs()
	tab.AddRow("60 segments, 16 nodes (region count)",
		limitCell(bn, berr), limitCell(cn, cerr))

	// Scenario 2: shared data bigger than one NIC's registered-memory
	// limit.  The base system registers the whole arena on every NIC;
	// CableS pins only each node's home portion (arena/N), so it can run
	// problems ~N x larger (the paper's OCEAN observation).
	bigBase := func() (int, error) {
		rt := m4.New(m4.Config{Procs: 32, ProcsPerNode: 2, ArenaBytes: 512 << 20})
		for i := 0; i < 10; i++ {
			if _, err := rt.Malloc(rt.Main(), "big", 40<<20); err != nil {
				return i, err
			}
		}
		return 10, nil
	}
	bigCables := func() (n int, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%v", r)
			}
		}()
		rt := cables.NewM4(cables.M4Config{Procs: 32, ProcsPerNode: 2, ArenaBytes: 512 << 20})
		main := rt.Main()
		const size, per = int64(40 << 20), 10
		addrs := make([]memsys.Addr, 0, per)
		for i := 0; i < per; i++ {
			a, mErr := rt.Malloc(main, "big", size)
			if mErr != nil {
				return i, mErr
			}
			addrs = append(addrs, a)
		}
		// The application's threads first-touch their own partitions, so
		// each node pins only arena/N — the double-mapping advantage.
		appapi.RunWorkers(rt, 32, func(t *sim.Task, p int) {
			acc := rt.Acc()
			stripe := size / 32
			for _, a := range addrs {
				lo := int64(p) * stripe
				for off := lo; off < lo+stripe; off += 64 << 10 {
					acc.WriteI64(t, a+memsys.Addr(off), 1)
				}
			}
		})
		return per, nil
	}
	bn2, berr2 := bigBase()
	cn2, cerr2 := bigCables()
	tab.AddRow("10 x 40 MB shared data (registered bytes)",
		limitCell(bn2, berr2), limitCell(cn2, cerr2))

	if w != nil {
		fprintf(w, "Tables 1/2: SAN limits binding each system (NIC: %d regions, %d MB registered, %d MB pinned)\n%s\n",
			vmmc.DefaultLimits().MaxRegions,
			vmmc.DefaultLimits().MaxRegisteredBytes>>20,
			vmmc.DefaultLimits().MaxPinnedBytes>>20, tab)
	}
	return tab
}

func limitCell(n int, err error) string {
	if err == nil {
		return fmt.Sprintf("OK (%d allocations)", n)
	}
	for _, sentinel := range []error{vmmc.ErrRegionLimit, vmmc.ErrRegisteredLimit, vmmc.ErrPinnedLimit} {
		if errors.Is(err, sentinel) {
			return fmt.Sprintf("FAILED after %d (%v)", n, sentinel)
		}
	}
	return fmt.Sprintf("FAILED after %d", n)
}
