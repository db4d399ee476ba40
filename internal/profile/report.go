package profile

import (
	"sort"

	"cables/internal/sim"
)

// KindTotal aggregates one span kind across a cell: how many spans and the
// sum of their self (exclusive) breakdowns.
type KindTotal struct {
	Count int
	Self  sim.Breakdown
}

// TaskProfile summarizes one task: its SpanRun root's inclusive breakdown
// (== the task's own sim breakdown accumulated while profiled) and span
// count.
type TaskProfile struct {
	ID    int
	Node  int
	Total sim.Breakdown
	Spans int
}

// PageStat is one page's heat: how often it faulted, filled remotely,
// diffed and migrated, and how much virtual time threads stalled in its
// fault handling (inclusive over fault spans).
type PageStat struct {
	Page       uint64
	Faults     int
	Fills      int
	Diffs      int
	Migrations int
	Stall      sim.Time
	MaxStall   sim.Time
}

// LockStat is one lock's contention profile.  Wait is the request→acquire
// interval summed over acquires; for contended acquires it splits into
// Transfer (the grant's wire latency after the holder released) and
// HoldBlocked (time the waiter sat behind the holder).  Hold is the total
// time the lock was held (acquire→release, paired globally).
type LockStat struct {
	Lock        uint64
	Acquires    int
	Contended   int
	Remote      int
	Wait        sim.Time
	MaxWait     sim.Time
	Transfer    sim.Time
	HoldBlocked sim.Time
	Hold        sim.Time
	MaxHold     sim.Time
}

// Report is the merged profile of one run (one (app, procs, backend) cell).
type Report struct {
	// Tasks, in adoption order (task ids ascend).
	Tasks []TaskProfile
	// Kinds aggregates self costs per span kind; Kinds[SpanRun] is the
	// time outside any instrumented activity.
	Kinds [NumSpanKinds]KindTotal
	// Total is the sum of all tasks' profiled breakdowns; it equals the
	// category-wise sum over Kinds (the reconciliation invariant).
	Total sim.Breakdown
	// Pages, hottest (most stall) first.
	Pages []PageStat
	// Locks, most waited-on first.
	Locks []LockStat
	// Anomalies sums stack-discipline violations across tasks (non-zero
	// only when an error unwound a task mid-span).
	Anomalies int
}

// lockEvent is one acquire or release, ordered globally per lock to pair
// hold intervals and compute the wait split.
type lockEvent struct {
	lock    uint64
	at      sim.Time
	acquire bool
	reqAt   sim.Time // acquire only: when the wait began (span start)
	flags   uint64   // acquire only: LockContended | LockRemote
}

// Build merges finalized task logs into a report.
func Build(logs []*TaskLog) *Report {
	r := &Report{}
	pages := make(map[uint64]*PageStat)
	locks := make(map[uint64]*LockStat)
	var events []lockEvent

	for _, l := range logs {
		r.Anomalies += l.anomalies
		spans := l.Spans()
		tp := TaskProfile{ID: l.task.ID, Node: l.task.NodeID, Spans: len(spans)}
		if len(spans) > 0 && spans[0].Kind == SpanRun {
			tp.Total = spans[0].Incl
		}
		r.Tasks = append(r.Tasks, tp)
		r.Total.AddAll(&tp.Total)

		for i := range spans {
			s := &spans[i]
			kt := &r.Kinds[s.Kind]
			kt.Count++
			self := s.Self()
			kt.Self.AddAll(&self)
			switch s.Kind {
			case SpanFault:
				ps := pageStat(pages, s.Arg)
				ps.Faults++
				ps.Stall += s.Dur()
				if d := s.Dur(); d > ps.MaxStall {
					ps.MaxStall = d
				}
			case SpanDiff:
				pageStat(pages, s.Arg).Diffs++
			case SpanMigrate:
				pageStat(pages, s.Arg).Migrations++
			}
		}

		// Pair each lock span with the acquire mark it contains.  Spans of
		// one task are sequential and marks are in time order, so a single
		// forward cursor suffices.
		marks := l.Marks()
		cursor := 0
		for i := range spans {
			s := &spans[i]
			if s.Kind != SpanLock {
				continue
			}
			for cursor < len(marks) && marks[cursor].At < s.Start {
				cursor++
			}
			for j := cursor; j < len(marks) && marks[j].At <= s.End; j++ {
				m := &marks[j]
				if m.Kind == MarkLockAcquired && m.Arg == s.Arg {
					events = append(events, lockEvent{
						lock: m.Arg, at: m.At, acquire: true,
						reqAt: s.Start, flags: m.Val,
					})
					cursor = j + 1
					break
				}
			}
		}
		for i := range marks {
			m := &marks[i]
			switch m.Kind {
			case MarkFill:
				pageStat(pages, m.Arg).Fills++
			case MarkLockReleased:
				events = append(events, lockEvent{lock: m.Arg, at: m.At})
			}
		}
	}

	// Global per-lock walk: releases sort before acquires at equal instants
	// (a release enables the next acquire).
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.lock != b.lock {
			return a.lock < b.lock
		}
		if a.at != b.at {
			return a.at < b.at
		}
		return !a.acquire && b.acquire
	})
	lastRelease := sim.Time(-1)
	lastAcquire := sim.Time(-1)
	var cur uint64
	for i := range events {
		e := &events[i]
		if i == 0 || e.lock != cur {
			cur, lastRelease, lastAcquire = e.lock, -1, -1
		}
		ls := locks[e.lock]
		if ls == nil {
			ls = &LockStat{Lock: e.lock}
			locks[e.lock] = ls
		}
		if !e.acquire {
			if lastAcquire >= 0 {
				hold := e.at - lastAcquire
				ls.Hold += hold
				if hold > ls.MaxHold {
					ls.MaxHold = hold
				}
				lastAcquire = -1
			}
			lastRelease = e.at
			continue
		}
		ls.Acquires++
		wait := e.at - e.reqAt
		if wait < 0 {
			wait = 0
		}
		ls.Wait += wait
		if wait > ls.MaxWait {
			ls.MaxWait = wait
		}
		if e.flags&LockRemote != 0 {
			ls.Remote++
		}
		if e.flags&LockContended != 0 {
			ls.Contended++
			transfer := sim.Time(0)
			if lastRelease >= 0 {
				transfer = e.at - lastRelease
			}
			if transfer < 0 {
				transfer = 0
			}
			if transfer > wait {
				transfer = wait
			}
			ls.Transfer += transfer
			ls.HoldBlocked += wait - transfer
		}
		lastAcquire = e.at
	}

	r.Pages = make([]PageStat, 0, len(pages))
	for _, ps := range pages {
		r.Pages = append(r.Pages, *ps)
	}
	sort.Slice(r.Pages, func(i, j int) bool {
		if r.Pages[i].Stall != r.Pages[j].Stall {
			return r.Pages[i].Stall > r.Pages[j].Stall
		}
		return r.Pages[i].Page < r.Pages[j].Page
	})
	r.Locks = make([]LockStat, 0, len(locks))
	for _, ls := range locks {
		r.Locks = append(r.Locks, *ls)
	}
	sort.Slice(r.Locks, func(i, j int) bool {
		if r.Locks[i].Wait != r.Locks[j].Wait {
			return r.Locks[i].Wait > r.Locks[j].Wait
		}
		return r.Locks[i].Lock < r.Locks[j].Lock
	})
	sort.Slice(r.Tasks, func(i, j int) bool { return r.Tasks[i].ID < r.Tasks[j].ID })
	return r
}

func pageStat(m map[uint64]*PageStat, pid uint64) *PageStat {
	ps := m[pid]
	if ps == nil {
		ps = &PageStat{Page: pid}
		m[pid] = ps
	}
	return ps
}

// KindSum returns the category-wise sum over all span kinds' self costs.
// The reconciliation invariant is KindSum() == Total.
func (r *Report) KindSum() sim.Breakdown {
	var b sim.Breakdown
	for i := range r.Kinds {
		b.AddAll(&r.Kinds[i].Self)
	}
	return b
}

// FaultTime returns the cell's total page-fault handling time (inclusive
// over fault spans); it equals the sum of per-page stalls.
func (r *Report) FaultTime() sim.Time {
	var t sim.Time
	for i := range r.Pages {
		t += r.Pages[i].Stall
	}
	return t
}
