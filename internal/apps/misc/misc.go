// Package misc implements the three publicly-available pthreads programs of
// the paper's Table 5 — PN (prime numbers), PC (producer–consumer), and
// PIPE (a threaded pipeline) — written directly against the CableS pthreads
// API (dynamic thread creation, mutexes, condition variables, cancel, keys,
// GLOBAL static variables), with per-operation timing instrumentation.
package misc

import (
	cables "cables/internal/core"
	"cables/internal/memsys"
	"cables/internal/sim"
	"cables/internal/stats"
)

// OpStats aliases the shared per-operation timing collector.
type OpStats = stats.OpStats

// ProgResult is a pthreads demo program's outcome.
type ProgResult struct {
	Name   string
	Answer int64
	Total  sim.Time
	Stats  *OpStats
}

// RunPN computes the primes below limit with dynamically created worker
// threads, a GLOBAL counter guarded by a mutex, a progress condition watched
// by a monitor thread, and pthread_cancel to retire the monitor.
func RunPN(rt *cables.Runtime, limit, workers int) ProgResult {
	st := &OpStats{}
	main := rt.Start()
	acc := rt.Acc()
	count := rt.Mem().GlobalVar(8) // GLOBAL static variable
	acc.WriteI64(main.Task, count, 0)

	var mx *cables.Mutex
	var progress *cables.Cond
	st.Time(main.Task, "mutex_init", func() { mx = rt.NewMutex(main.Task) })
	st.Time(main.Task, "cond_init", func() { progress = rt.NewCond(main.Task) })

	// Monitor thread: waits for progress signals until canceled.
	var monitor *cables.Thread
	st.Time(main.Task, "create", func() {
		monitor = rt.Create(main.Task, func(th *cables.Thread) {
			mx.Lock(th.Task)
			for {
				progress.Wait(th, mx) // cancellation point
			}
		})
	})

	chunk := (limit + workers - 1) / workers
	threads := make([]*cables.Thread, workers)
	for w := 0; w < workers; w++ {
		w := w
		st.Time(main.Task, "create", func() {
			threads[w] = rt.Create(main.Task, func(th *cables.Thread) {
				lo := 2 + w*chunk
				hi := lo + chunk
				if hi > limit+2 {
					hi = limit + 2
				}
				found := int64(0)
				for n := lo; n < hi; n++ {
					if isPrime(n) {
						found++
					}
					th.Task.Compute(sim.Time(n%97) * 2 * sim.Nanosecond)
				}
				st.Time(th.Task, "mutex_lock", func() { mx.Lock(th.Task) })
				v := acc.ReadI64(th.Task, count)
				acc.WriteI64(th.Task, count, v+found)
				st.Time(th.Task, "cond_signal", func() { progress.Signal(th.Task) })
				st.Time(th.Task, "mutex_unlock", func() { mx.Unlock(th.Task) })
			})
		})
	}
	for _, th := range threads {
		st.Time(main.Task, "join", func() { rt.Join(main.Task, th) })
	}
	st.Time(main.Task, "cancel", func() { rt.Cancel(main.Task, monitor) })
	st.Time(main.Task, "join", func() { rt.Join(main.Task, monitor) })

	mx.Lock(main.Task)
	answer := acc.ReadI64(main.Task, count)
	mx.Unlock(main.Task)
	return ProgResult{Name: "PN", Answer: answer, Total: rt.End(main.Task), Stats: st}
}

// RunPC runs the two-thread bounded-buffer producer–consumer (single node,
// so Table 5 uses it to show the cost of purely local API operations).
func RunPC(rt *cables.Runtime, items int) ProgResult {
	st := &OpStats{}
	main := rt.Start()
	acc := rt.Acc()
	buf, err := rt.Mem().Malloc(main.Task, 16)
	if err != nil {
		panic("pc: " + err.Error())
	}
	acc.WriteI64(main.Task, buf, 0)
	acc.WriteI64(main.Task, buf+8, 0)
	mx := rt.NewMutex(main.Task)
	notFull := rt.NewCond(main.Task)
	notEmpty := rt.NewCond(main.Task)

	var sum int64
	var producer, consumer *cables.Thread
	st.Time(main.Task, "create", func() {
		producer = rt.Create(main.Task, func(th *cables.Thread) {
			for i := 1; i <= items; i++ {
				st.Time(th.Task, "mutex_lock", func() { mx.Lock(th.Task) })
				for acc.ReadI64(th.Task, buf+8) == 1 {
					st.Time(th.Task, "cond_wait", func() { notFull.Wait(th, mx) })
				}
				acc.WriteI64(th.Task, buf, int64(i))
				acc.WriteI64(th.Task, buf+8, 1)
				st.Time(th.Task, "cond_signal", func() { notEmpty.Signal(th.Task) })
				st.Time(th.Task, "mutex_unlock", func() { mx.Unlock(th.Task) })
			}
		})
	})
	st.Time(main.Task, "create", func() {
		consumer = rt.Create(main.Task, func(th *cables.Thread) {
			var s int64
			for i := 0; i < items; i++ {
				st.Time(th.Task, "mutex_lock", func() { mx.Lock(th.Task) })
				for acc.ReadI64(th.Task, buf+8) == 0 {
					st.Time(th.Task, "cond_wait", func() { notEmpty.Wait(th, mx) })
				}
				s += acc.ReadI64(th.Task, buf)
				acc.WriteI64(th.Task, buf+8, 0)
				st.Time(th.Task, "cond_signal", func() { notFull.Signal(th.Task) })
				st.Time(th.Task, "mutex_unlock", func() { mx.Unlock(th.Task) })
			}
			sum = s
		})
	})
	st.Time(main.Task, "join", func() { rt.Join(main.Task, producer) })
	st.Time(main.Task, "join", func() { rt.Join(main.Task, consumer) })
	return ProgResult{Name: "PC", Answer: sum, Total: rt.End(main.Task), Stats: st}
}

// RunPIPE builds a threaded pipeline: each stage transforms items flowing
// through shared single-slot buffers guarded by mutex+cond pairs; stages
// keep private state in thread-specific data (pthread keys).
func RunPIPE(rt *cables.Runtime, stages, items int) ProgResult {
	st := &OpStats{}
	main := rt.Start()
	acc := rt.Acc()

	// stage buffers: [value, full] per inter-stage link.
	links, err := rt.Mem().Malloc(main.Task, int64(stages+1)*16)
	if err != nil {
		panic("pipe: " + err.Error())
	}
	linkA := func(i int) memsys.Addr { return links + memsys.Addr(i*16) }
	mxs := make([]*cables.Mutex, stages+1)
	conds := make([]*cables.Cond, stages+1)
	for i := 0; i <= stages; i++ {
		acc.WriteI64(main.Task, linkA(i), 0)
		acc.WriteI64(main.Task, linkA(i)+8, 0)
		mxs[i] = rt.NewMutex(main.Task)
		conds[i] = rt.NewCond(main.Task)
	}
	key := rt.KeyCreate(main.Task)

	push := func(th *cables.Thread, link int, v int64) {
		st.Time(th.Task, "mutex_lock", func() { mxs[link].Lock(th.Task) })
		for acc.ReadI64(th.Task, linkA(link)+8) == 1 {
			st.Time(th.Task, "cond_wait", func() { conds[link].Wait(th, mxs[link]) })
		}
		acc.WriteI64(th.Task, linkA(link), v)
		acc.WriteI64(th.Task, linkA(link)+8, 1)
		st.Time(th.Task, "cond_broadcast", func() { conds[link].Broadcast(th.Task) })
		st.Time(th.Task, "mutex_unlock", func() { mxs[link].Unlock(th.Task) })
	}
	pull := func(th *cables.Thread, link int) int64 {
		st.Time(th.Task, "mutex_lock", func() { mxs[link].Lock(th.Task) })
		for acc.ReadI64(th.Task, linkA(link)+8) == 0 {
			st.Time(th.Task, "cond_wait", func() { conds[link].Wait(th, mxs[link]) })
		}
		v := acc.ReadI64(th.Task, linkA(link))
		acc.WriteI64(th.Task, linkA(link)+8, 0)
		st.Time(th.Task, "cond_broadcast", func() { conds[link].Broadcast(th.Task) })
		st.Time(th.Task, "mutex_unlock", func() { mxs[link].Unlock(th.Task) })
		return v
	}

	threads := make([]*cables.Thread, stages)
	for s := 0; s < stages; s++ {
		s := s
		st.Time(main.Task, "create", func() {
			threads[s] = rt.Create(main.Task, func(th *cables.Thread) {
				th.SetSpecific(key, int64(0)) // per-stage running count (TSD)
				for i := 0; i < items; i++ {
					v := pull(th, s)
					v = v*2 + 1 // the stage's calculation
					th.Task.Compute(500 * sim.Nanosecond)
					cnt := th.GetSpecific(key).(int64)
					th.SetSpecific(key, cnt+1)
					push(th, s+1, v)
				}
			})
		})
	}
	// A feeder thread sources the pipeline while the main thread drains it
	// (the pipeline holds only one item per link, so one thread cannot do
	// both).
	feeder := rt.Create(main.Task, func(th *cables.Thread) {
		for i := 1; i <= items; i++ {
			push(th, 0, int64(i))
		}
	})
	var sum int64
	for i := 0; i < items; i++ {
		sum += pull(main, stages)
	}
	rt.Join(main.Task, feeder)
	for _, th := range threads {
		st.Time(main.Task, "join", func() { rt.Join(main.Task, th) })
	}
	return ProgResult{Name: "PIPE", Answer: sum, Total: rt.End(main.Task), Stats: st}
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}
