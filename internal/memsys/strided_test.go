package memsys

import (
	"math"
	"reflect"
	"testing"

	"cables/internal/sim"
)

// stridedHandler validates a faulting copy in place, keeping its frame,
// charges each fault and records when it began and which page it was.
type stridedHandler struct {
	sp            *Space
	reads, writes int
	at            []sim.Time
	last          PageID
}

func (h *stridedHandler) ReadFault(t *sim.Task, pid PageID) {
	h.reads++
	h.at, h.last = append(h.at, t.Now()), pid
	pc := h.sp.Copy(t.MemNode(), pid)
	pc.EnsureFrame()
	pc.SetValid(true)
	t.Charge(sim.CatRemote, 150*sim.Microsecond)
}

func (h *stridedHandler) WriteFault(t *sim.Task, pid PageID) {
	h.writes++
	h.at, h.last = append(h.at, t.Now()), pid
	pc := h.sp.Copy(t.MemNode(), pid)
	pc.EnsureFrame()
	pc.SetValid(true)
	pc.SetWritten(true)
	t.Charge(sim.CatLocal, 40*sim.Microsecond)
}

// stridedTrace is everything a strided access can be observed by.
type stridedTrace struct {
	vals           []float64 // the words read, or the column as stored
	clocks         [2]sim.Time
	brks           [2]sim.Breakdown
	reads, writes  int
	unshares       int
	faults, yields []sim.Time
}

// stridedRun reads (or writes) words words, w at a time, group j at
// base+j*stride, on a managed task of node 0 — through the strided accessor
// or as the scalar loop over the same words — while a managed peer on node
// 1 records the task's clock at each of its turns and then disturbs the
// page the walk last faulted on, on node 0: for a read it invalidates the
// page under new contents; for a write it clears the dirty flag (as a flush
// does) or shares the frame (as a twin does), turn about.  Accesses cost 10 µs and the
// task's node runs 2 threads on 1 processor, so the walk crosses the 1 ms
// preemption slack several times mid-column.
func stridedRun(write, strided bool, base Addr, stride, w, words int) stridedTrace {
	costs := sim.DefaultCosts()
	costs.MemAccess = 10 * sim.Microsecond
	sp := NewSpace(2, 1<<20)
	h := &stridedHandler{sp: sp}
	acc := NewAccessor(sp, h)
	var tr stridedTrace
	sp.BindUnshares(func(int) { tr.unshares++ })
	addr := func(k int) Addr { return base + Addr(k/w*stride+k%w*8) }
	for pid := sp.PageOf(addr(0)); pid <= sp.PageOf(addr(words-1)); pid++ {
		pc := sp.Copy(0, pid)
		pc.EnsureExclusive()
		for i := range pc.words {
			pc.words[i] = math.Float64bits(float64(int(pid)*1000 + i))
		}
	}

	s := sim.NewScheduler()
	main := sim.NewTask(0, 0, costs)
	main.SetNow(sim.Second) // behind every peer in the run queue until both finish
	s.Adopt(main)
	a, peer := sim.NewTask(1, 0, costs), sim.NewTask(2, 1, costs)
	a.SMP = &sim.SMP{Processors: 1}
	a.SMP.ThreadStarted()
	a.SMP.ThreadStarted()
	tr.vals = make([]float64, words)
	for k := range tr.vals {
		tr.vals[k] = -float64(k)
	}
	done := false
	s.Go(a, func() {
		switch {
		case strided && write:
			acc.WriteF64Strided(a, base, stride, w, tr.vals)
		case strided:
			acc.ReadF64Strided(a, base, stride, w, tr.vals)
		case write:
			for k, v := range tr.vals {
				acc.WriteF64(a, addr(k), v)
			}
		default:
			for k := range tr.vals {
				tr.vals[k] = acc.ReadF64(a, addr(k))
			}
		}
		done = true
	})
	s.Go(peer, func() {
		var shared []*Frame
		for turn := 0; !done; turn++ {
			tr.yields = append(tr.yields, a.Now())
			pc := sp.Copy(0, h.last)
			switch {
			case !write:
				pc.EnsureExclusive()
				pc.words[turn%PageWords] = math.Float64bits(float64(-turn))
				pc.SetValid(false)
			case turn%2 == 0:
				pc.SetWritten(false)
			case pc.Frame() != nil:
				shared = append(shared, pc.Frame().Ref())
			}
			peer.Compute(700 * sim.Microsecond)
		}
		for _, f := range shared {
			f.Release()
		}
	})
	main.Compute(sim.Nanosecond) // yields until a and peer are done
	if write {
		for k := range tr.vals {
			pid, i := acc.check(addr(k))
			tr.vals[k] = math.Float64frombits(sp.Copy(0, pid).words[i])
		}
	}
	tr.clocks = [2]sim.Time{a.Now(), peer.Now()}
	tr.brks = [2]sim.Breakdown{a.Snapshot(), peer.Snapshot()}
	tr.reads, tr.writes, tr.faults = h.reads, h.writes, h.at
	return tr
}

// TestStridedMatchesScalarLoop: ReadF64Strided and WriteF64Strided read and
// store the same values as the scalar loop over the same words, and leave
// both tasks the same clocks and breakdowns, the same faults at the same
// instants, the same unshares and the same hand-offs — with a peer that
// invalidates, cleans or shares a page of the walk at each mid-column yield.
func TestStridedMatchesScalarLoop(t *testing.T) {
	for _, c := range []struct {
		name             string
		base             Addr
		stride, w, words int
	}{
		{"column", SpaceBase + 5*16, 64 * 16, 2, 128}, // fft.transpose: 4 rows a page
		{"color", SpaceBase + 8, 16, 1, 700},          // ocean: every other word
	} {
		for _, write := range []bool{false, true} {
			want := stridedRun(write, false, c.base, c.stride, c.w, c.words)
			got := stridedRun(write, true, c.base, c.stride, c.w, c.words)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s write=%v:\nstrided %+v\nscalar  %+v", c.name, write, got, want)
			}
			if len(want.yields) < 3 || want.reads+want.writes < 3 {
				t.Errorf("%s write=%v: %d peer turns and %d+%d faults exercise too little",
					c.name, write, len(want.yields), want.reads, want.writes)
			}
		}
	}
}
