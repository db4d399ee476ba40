package bench

import (
	"fmt"
	"io"

	cables "cables/internal/core"
	"cables/internal/m4"
	"cables/internal/memsys"
	"cables/internal/nodeos"
	"cables/internal/openmp"
	"cables/internal/sim"
	"cables/internal/stats"
	"cables/internal/wire"

	"cables/internal/apps/misc"
	"cables/internal/apps/omp"
)

// Table3 regenerates the paper's Table 3: basic VMMC operation costs.
func Table3(w io.Writer) *stats.Table {
	tab := stats.NewTable("VMMC Operation", "Overhead")

	// Each operation runs on a fresh, idle cluster so no NIC occupancy
	// from a previous measurement queues behind it.
	measure := func(fn func(cl *nodeos.Cluster, t *sim.Task)) sim.Time {
		cl := nodeos.NewCluster(nodeos.Config{NumNodes: 2, ProcsPerNode: 2})
		t := cl.NewTask(0, 0)
		fn(cl, t)
		return t.Now()
	}

	op := func(k wire.Kind, size int) func(cl *nodeos.Cluster, t *sim.Task) {
		return func(cl *nodeos.Cluster, t *sim.Task) {
			cl.Wire.Do(t, wire.Op{Kind: k, Dst: 1, Size: size})
		}
	}
	send1 := measure(op(wire.KindWrite, 8))
	fetch1 := measure(op(wire.KindFetch, 8))
	send4k := measure(op(wire.KindWrite, 4096))
	fetch4k := measure(op(wire.KindFetch, 4096))
	notif := measure(op(wire.KindNotify, 8))

	const streamBytes = 64 << 20
	bwSend := measure(op(wire.KindStream, streamBytes))
	bwMBs := float64(streamBytes) / bwSend.Seconds() / 1e6
	bwFetch := measure(op(wire.KindStreamFetch, streamBytes))
	bwFetchMBs := float64(streamBytes) / bwFetch.Seconds() / 1e6

	tab.AddRow("1-word send (one-way lat)", send1.String())
	tab.AddRow("1-word fetch (round-trip lat)", fetch1.String())
	tab.AddRow("4 KByte send (one-way lat)", send4k.String())
	tab.AddRow("4 KByte fetch (round-trip lat)", fetch4k.String())
	tab.AddRow("Maximum ping-pong bandwidth", fmt.Sprintf("%.0f MBytes/s", bwMBs))
	tab.AddRow("Maximum fetch bandwidth", fmt.Sprintf("%.0f MBytes/s", bwFetchMBs))
	tab.AddRow("Notification", notif.String())
	if w != nil {
		fprintf(w, "Table 3: basic VMMC costs\n%s\n", tab)
	}
	return tab
}

// row4 is one Table 4 measurement.
type row4 struct {
	name  string
	total sim.Time
	brk   sim.Breakdown
}

// measureOp runs fn on t and captures its virtual duration and breakdown.
func measureOp(t *sim.Task, name string, fn func()) row4 {
	b0 := t.Snapshot()
	t0 := t.Now()
	fn()
	return row4{name: name, total: t.Now() - t0, brk: t.Snapshot().Sub(b0)}
}

// Table4 regenerates the paper's Table 4: CableS execution times for the
// basic events, with local/remote/OS/communication breakdowns, measured on
// 2- and 4-node configurations with no application data.
func Table4(w io.Writer) *stats.Table {
	var rows []row4

	// --- Node attach ---
	{
		rt := cables.New(cables.Config{MaxNodes: 4, ProcsPerNode: 2})
		main := rt.Start().Task
		rows = append(rows, measureOp(main, "attach node", func() {
			if _, err := rt.AttachNode(main); err != nil {
				panic(err)
			}
		}))
	}

	// --- Thread create (local / remote) ---
	{
		rt := cables.New(cables.Config{MaxNodes: 2, ProcsPerNode: 2, PrestartNodes: 2})
		main := rt.Start().Task
		var ths []*cables.Thread
		rows = append(rows, measureOp(main, "local thread create", func() {
			ths = append(ths, rt.Create(main, func(*cables.Thread) {}))
		}))
		rows = append(rows, measureOp(main, "remote thread create", func() {
			ths = append(ths, rt.Create(main, func(*cables.Thread) {}))
		}))
		for _, th := range ths {
			rt.Join(main, th)
		}
	}

	// --- Mutexes ---
	{
		rt := cables.New(cables.Config{MaxNodes: 2, ProcsPerNode: 2,
			ThreadsPerNode: 1, PrestartNodes: 2})
		main := rt.Start().Task
		mx := rt.NewMutex(main)
		rows = append(rows, measureOp(main, "local mutex lock (first time)", func() { mx.Lock(main) }))
		rows = append(rows, measureOp(main, "mutex unlock", func() { mx.Unlock(main) }))
		rows = append(rows, measureOp(main, "local mutex lock", func() { mx.Lock(main) }))
		mx.Unlock(main)
		// Remote: a thread on node 1 acquires a lock last held on node 0.
		// The two threads hand off by parking; the instants they pass are
		// ignored, so the hand-offs move no clock.
		var remoteFirst, remoteAgain row4
		th := rt.Create(main, func(th *cables.Thread) {
			remoteFirst = measureOp(th.Task, "remote mutex lock (first time)", func() { mx.Lock(th.Task) })
			mx.Unlock(th.Task)
			main.Unpark(th.Task.Now())
			th.Task.Park() // main re-takes the lock so it is again remote for us
			remoteAgain = measureOp(th.Task, "remote mutex lock", func() { mx.Lock(th.Task) })
			mx.Unlock(th.Task)
		})
		main.Park()
		mx.Lock(main)
		mx.Unlock(main)
		th.Task.Unpark(main.Now())
		rt.Join(main, th)
		rows = append(rows, remoteFirst, remoteAgain)
	}

	// --- Condition variables ---
	{
		rt := cables.New(cables.Config{MaxNodes: 2, ProcsPerNode: 2,
			ThreadsPerNode: 1, PrestartNodes: 2})
		rt.Stats = &stats.OpStats{}
		main := rt.Start().Task
		mx := rt.NewMutex(main)
		cond := rt.NewCond(main)
		th := rt.Create(main, func(th *cables.Thread) {
			mx.Lock(th.Task)
			main.Unpark(th.Task.Now())
			cond.Wait(th, mx)
			mx.Unlock(th.Task)
		})
		main.Park()
		mx.Lock(main)
		rows = append(rows, measureOp(main, "conditional signal", func() { cond.Signal(main) }))
		mx.Unlock(main)
		rt.Join(main, th)
		// The wait's API overhead is recorded by the library itself,
		// excluding blocking time and the mutex re-acquisition.
		waitCost, _ := rt.Stats.Avg("cond_wait")
		c := rt.Cluster().Costs
		waitRow := row4{name: "conditional wait", total: waitCost}
		waitRow.brk[sim.CatLocal] = c.CondWaitLocal
		waitRow.brk[sim.CatComm] = c.CondWaitComm
		rows = append(rows, waitRow)

		// Broadcast with one remote waiter.
		th2 := rt.Create(main, func(th *cables.Thread) {
			mx.Lock(th.Task)
			main.Unpark(th.Task.Now())
			cond.Wait(th, mx)
			mx.Unlock(th.Task)
		})
		main.Park()
		mx.Lock(main) // the waiter is parked: it held the slot until then
		rows = append(rows, measureOp(main, "conditional broadcast", func() { cond.Broadcast(main) }))
		mx.Unlock(main)
		rt.Join(main, th2)
	}

	// --- Barriers (GeNIMA native vs pthreads mutex+cond) ---
	{
		mrt := m4.New(m4.Config{Procs: 8, ProcsPerNode: 2, ArenaBytes: 16 << 20})
		var natRow row4
		bar := mrt.Protocol().NewBarrier("t4")
		var ids []int
		for i := 0; i < 8; i++ {
			ids = append(ids, mrt.Spawn(mrt.Main(), func(t *sim.Task) {
				bar.Wait(t, 9)
				bar.Wait(t, 9)
			}))
		}
		bar.Wait(mrt.Main(), 9)
		natRow = measureOp(mrt.Main(), "GeNIMA barrier", func() { bar.Wait(mrt.Main(), 9) })
		for _, id := range ids {
			mrt.Join(mrt.Main(), id)
		}
		natRow.total -= natRow.brk[sim.CatWait]
		natRow.brk[sim.CatWait] = 0
		rows = append(rows, natRow)

		crt := cables.New(cables.Config{MaxNodes: 4, ProcsPerNode: 2, CoordinatorMain: true})
		cmain := crt.Start()
		cb, err := crt.NewCentralBarrier(cmain.Task, 8)
		if err != nil {
			panic(err)
		}
		ends := make(chan sim.Time, 8)
		starts := make(chan sim.Time, 8)
		var cths []*cables.Thread
		for i := 0; i < 8; i++ {
			cths = append(cths, crt.Create(cmain.Task, func(th *cables.Thread) {
				crt.Barrier(th.Task, "align", 8)
				starts <- th.Task.Now()
				cb.Wait(th)
				ends <- th.Task.Now()
			}))
		}
		for _, th := range cths {
			crt.Join(cmain.Task, th)
		}
		var maxStart, maxEnd sim.Time
		for i := 0; i < 8; i++ {
			if s := <-starts; s > maxStart {
				maxStart = s
			}
			if e := <-ends; e > maxEnd {
				maxEnd = e
			}
		}
		rows = append(rows, row4{name: "pthreads barrier", total: maxEnd - maxStart})
	}

	// --- Segment operations and administration ---
	{
		rt := cables.New(cables.Config{MaxNodes: 2, ProcsPerNode: 2,
			ThreadsPerNode: 1, PrestartNodes: 2})
		main := rt.Start().Task
		mem := rt.Mem()
		sp := rt.Protocol().Space()
		addr, err := mem.Malloc(main, 1<<20)
		if err != nil {
			panic(err)
		}
		unitPages := memsys.PageID(rt.Cluster().Costs.MapGranularity / memsys.PageSize)
		pid := sp.PageOf(addr)
		rows = append(rows, measureOp(main, "segment migration on ACB owner (first time)", func() {
			mem.HomeFor(main, pid)
		}))
		rows = append(rows, measureOp(main, "segment owner detect on ACB owner", func() {
			mem.HomeFor(main, pid)
		}))
		var migRow, detFirst, detAgain row4
		th := rt.Create(main, func(th *cables.Thread) {
			migRow = measureOp(th.Task, "segment migration (first time)", func() {
				mem.HomeFor(th.Task, pid+unitPages)
			})
			detFirst = measureOp(th.Task, "segment owner detect (first time)", func() {
				mem.HomeFor(th.Task, pid)
			})
			detAgain = measureOp(th.Task, "segment owner detect", func() {
				mem.HomeFor(th.Task, pid)
			})
		})
		rt.Join(main, th)
		rows = append(rows, migRow, detFirst, detAgain)

		var adminRow row4
		th2 := rt.Create(main, func(th *cables.Thread) {
			adminRow = measureOp(th.Task, "administration request", func() {
				rt.KeyCreate(th.Task)
			})
		})
		rt.Join(main, th2)
		rows = append(rows, adminRow)
	}

	tab := stats.NewTable("CableS Mechanism", "Total",
		"Local CableS", "Remote CableS", "Local OS", "Communication")
	cell := func(d sim.Time) string {
		if d == 0 {
			return "-"
		}
		return d.String()
	}
	for _, r := range rows {
		tab.AddRow(r.name, r.total.String(),
			cell(r.brk[sim.CatLocal]), cell(r.brk[sim.CatRemote]),
			cell(r.brk[sim.CatLocalOS]), cell(r.brk[sim.CatComm]))
	}
	if w != nil {
		fprintf(w, "Table 4: CableS execution times for the basic events\n%s\n", tab)
	}
	return tab
}

// Table5 regenerates the paper's Table 5: the pthreads programs (PN, PC,
// PIPE and the OpenMP SPLASH-2 programs) with the average execution time of
// each pthreads API operation during the run.  Each program is an
// independent simulation; up to jobs of them run concurrently on the host,
// with rows always emitted in the fixed program order.
func Table5(w io.Writer, scale Scale, jobs int) *stats.Table {
	newRT := func(nodes int) *cables.Runtime {
		return cables.New(cables.Config{MaxNodes: nodes, ProcsPerNode: 2})
	}
	limit, items := 20000, 300
	ompM, ompN := 12, 128
	if scale == ScalePaper {
		limit, items = 100000, 1000
		ompM, ompN = 14, 192
	}

	runOMP := func(name string, f func(r *openmp.Runtime) float64) misc.ProgResult {
		r := openmp.New(openmp.Config{Procs: 8, ProcsPerNode: 2})
		r.Stats = &stats.OpStats{}
		f(r)
		return misc.ProgResult{Name: name, Total: r.Finish(), Stats: r.Stats}
	}
	cells := []struct {
		name string
		run  func() misc.ProgResult
	}{
		{"PN", func() misc.ProgResult { return misc.RunPN(newRT(4), limit, 7) }},
		{"PC", func() misc.ProgResult { return misc.RunPC(newRT(1), items) }},
		{"PIPE", func() misc.ProgResult { return misc.RunPIPE(newRT(4), 6, items) }},
		{"OMP FFT", func() misc.ProgResult {
			return runOMP("OMP FFT", func(r *openmp.Runtime) float64 { return omp.FFT(r, ompM).Checksum })
		}},
		{"OMP LU", func() misc.ProgResult {
			return runOMP("OMP LU", func(r *openmp.Runtime) float64 { return omp.LU(r, ompN).Checksum })
		}},
		{"OMP OCEAN", func() misc.ProgResult {
			return runOMP("OMP OCEAN", func(r *openmp.Runtime) float64 { return omp.Ocean(r, ompN, 2).Checksum })
		}},
	}
	progs := make([]misc.ProgResult, len(cells))
	errs := RunCells(jobs, len(cells), func(i int) {
		progs[i] = cells[i].run()
	})

	cols := []string{"create", "join", "mutex_lock", "mutex_unlock",
		"cond_wait", "cond_signal", "cond_broadcast", "barrier", "cancel"}
	tab := stats.NewTable(append([]string{"PROGRAM", "Total"}, cols...)...)
	for i, p := range progs {
		if errs[i] != nil {
			// The cell panicked: render a FAILED row and keep the table.
			row := append([]string{cells[i].name, "FAILED"}, make([]string, len(cols))...)
			for j := range cols {
				row[2+j] = "-"
			}
			tab.AddRow(row...)
			continue
		}
		row := []string{p.Name, p.Total.String()}
		for _, op := range cols {
			avg, n := p.Stats.Avg(op)
			if n == 0 {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%v", avg))
			}
		}
		tab.AddRow(row...)
	}
	if w != nil {
		fprintf(w, "Table 5: pthreads programs, average per-operation cost\n%s\n", tab)
	}
	return tab
}

// Table6 regenerates the paper's Table 6: speedups of the three OpenMP
// SPLASH-2 programs on 4, 8 and 16 processors (SMP-style codes with naive
// placement, hence the modest numbers).  The apps x procs grid runs as
// independent cells, up to jobs at a time, assembled in fixed order.
func Table6(w io.Writer, scale Scale, jobs int) *stats.Table {
	m, n := 12, 128
	iters := 2
	if scale == ScalePaper {
		m, n = 16, 384
	}
	procsList := []int{1, 4, 8, 16}

	type appRun struct {
		name string
		run  func(r *openmp.Runtime) sim.Time
	}
	apps := []appRun{
		{"FFT", func(r *openmp.Runtime) sim.Time { return omp.FFT(r, m).Parallel }},
		{"LU", func(r *openmp.Runtime) sim.Time { return omp.LU(r, n).Parallel }},
		{"OCEAN", func(r *openmp.Runtime) sim.Time { return omp.Ocean(r, n, iters).Parallel }},
	}

	times := make([]sim.Time, len(apps)*len(procsList))
	errs := RunCells(jobs, len(times), func(i int) {
		a, p := apps[i/len(procsList)], procsList[i%len(procsList)]
		r := openmp.New(openmp.Config{Procs: p, ProcsPerNode: 2})
		times[i] = a.run(r)
	})

	tab := stats.NewTable("PROGRAM", "4 procs.", "8 procs.", "16 procs.")
	for ai, a := range apps {
		base := times[ai*len(procsList)]
		baseErr := errs[ai*len(procsList)]
		row := []string{a.name}
		for pi := range procsList[1:] {
			i := ai*len(procsList) + pi + 1
			if baseErr != nil || errs[i] != nil || times[i] == 0 {
				row = append(row, "FAILED")
				continue
			}
			row = append(row, fmt.Sprintf("%.2f", float64(base)/float64(times[i])))
		}
		tab.AddRow(row...)
	}
	if w != nil {
		fprintf(w, "Table 6: OpenMP SPLASH-2 speedups on CableS\n%s\n", tab)
	}
	return tab
}
