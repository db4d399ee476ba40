package memsys

import (
	"testing"
	"testing/quick"

	"cables/internal/sim"
)

func TestSpaceGeometry(t *testing.T) {
	s := NewSpace(4, 1<<20)
	if s.NumPages() != 256 {
		t.Errorf("pages: %d", s.NumPages())
	}
	if s.Base() != SpaceBase {
		t.Errorf("base: %#x", uint64(s.Base()))
	}
	if !s.Contains(SpaceBase, 1<<20) || s.Contains(SpaceBase, 1<<20+1) {
		t.Error("contains wrong")
	}
	if s.PageOf(SpaceBase+PageSize) != 1 {
		t.Error("PageOf wrong")
	}
	if s.PageAddr(3) != SpaceBase+3*PageSize {
		t.Error("PageAddr wrong")
	}
}

func TestPageOfPanicsOutsideArena(t *testing.T) {
	s := NewSpace(1, 1<<16)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	s.PageOf(SpaceBase - 1)
}

// TestCopyIsPerNodeSingleton: repeated Copy calls return one descriptor
// per node and page, across pages that share and pages that do not share
// an on-demand chunk.
func TestCopyIsPerNodeSingleton(t *testing.T) {
	s := NewSpace(2, 1<<22)
	first := s.Copy(0, 3)
	for _, pid := range []PageID{3, 4, pageChunkSize + 3} {
		if s.Copy(0, pid) != s.Copy(0, pid) {
			t.Fatalf("page %d: Copy returned distinct descriptors", pid)
		}
	}
	if s.Copy(0, 3) != first {
		t.Fatal("Copy of another page replaced the descriptor")
	}
	if s.Copy(0, 4) == first || s.Copy(0, pageChunkSize+3) == first {
		t.Error("distinct pages share a descriptor")
	}
	if s.Copy(1, 3) == first {
		t.Error("copies not per-node")
	}
}

// TestFirstTouchIsExactlyOnce: the first toucher places the page, every
// later touch reports that home without moving it, and the first-toucher
// record likewise keeps its first node.
func TestFirstTouchIsExactlyOnce(t *testing.T) {
	s := NewSpace(8, 1<<16)
	if h := s.Home(5); h != -1 {
		t.Fatalf("unplaced page has home %d", h)
	}
	for n := 0; n < 8; n++ {
		node := (n + 3) % 8 // node 3 touches first
		h, placed := s.TryFirstTouch(5, node)
		if placed != (n == 0) || h != 3 {
			t.Errorf("touch %d by node %d: home %d placed %v, want home 3 placed %v",
				n, node, h, placed, n == 0)
		}
		s.RecordToucher(5, node)
	}
	if s.Home(5) != 3 || s.Toucher(5) != 3 {
		t.Errorf("home %d toucher %d, want 3 and 3", s.Home(5), s.Toucher(5))
	}
}

// TestMisplacedPagesMetric: the Figure 6 metric counts exactly the touched
// pages whose home differs from the 4 KB first toucher.
func TestMisplacedPagesMetric(t *testing.T) {
	s := NewSpace(4, 1<<20)
	for pid := PageID(0); pid < 10; pid++ {
		s.RecordToucher(pid, int(pid%4))
		if pid < 6 {
			s.SetHome(pid, int(pid%4)) // well placed
		} else {
			s.SetHome(pid, (int(pid)+1)%4) // misplaced
		}
	}
	mis, total := s.MisplacedPages()
	if total != 10 || mis != 4 {
		t.Errorf("got %d/%d want 4/10", mis, total)
	}
}

// TestAllocSegmentProperties: allocations never overlap, respect alignment,
// and fail cleanly when the arena is exhausted.
func TestAllocSegmentProperties(t *testing.T) {
	type alloc struct{ start, size int64 }
	f := func(sizes []uint16) bool {
		s := NewSpace(1, 1<<20)
		var allocs []alloc
		for _, raw := range sizes {
			size := int64(raw%2048) + 1
			a, err := s.AllocSegment(size, 64)
			if err != nil {
				continue
			}
			if uint64(a)%64 != 0 {
				return false
			}
			na := alloc{int64(a), size}
			for _, o := range allocs {
				if na.start < o.start+o.size && o.start < na.start+na.size {
					return false // overlap
				}
			}
			allocs = append(allocs, na)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAllocSegmentErrors(t *testing.T) {
	s := NewSpace(1, 1<<16)
	if _, err := s.AllocSegment(0, 0); err == nil {
		t.Error("zero-size accepted")
	}
	if _, err := s.AllocSegment(8, 3); err == nil {
		t.Error("non-power-of-two alignment accepted")
	}
	if _, err := s.AllocSegment(1<<20, 0); err == nil {
		t.Error("oversized accepted")
	}
	if _, err := s.AllocSegment(1<<15, 0); err != nil {
		t.Errorf("valid alloc failed: %v", err)
	}
}

// fakeHandler validates pages immediately (no protocol).
type fakeHandler struct {
	sp          *Space
	readFaults  int
	writeFaults int
}

func (h *fakeHandler) ReadFault(t *sim.Task, pid PageID) {
	pc := h.sp.Copy(t.NodeID, pid)
	pc.EnsureFrame()
	pc.SetValid(true)
	h.readFaults++
}

func (h *fakeHandler) WriteFault(t *sim.Task, pid PageID) {
	h.ReadFault(t, pid)
	pc := h.sp.Copy(t.NodeID, pid)
	pc.SetWritten(true)
	h.writeFaults++
}

func newAcc() (*Accessor, *fakeHandler, *sim.Task) {
	sp := NewSpace(2, 1<<20)
	h := &fakeHandler{sp: sp}
	task := sim.NewTask(1, 0, sim.DefaultCosts())
	return NewAccessor(sp, h), h, task
}

// TestScalarRoundTrips covers every typed accessor.
func TestScalarRoundTrips(t *testing.T) {
	acc, _, task := newAcc()
	a := SpaceBase
	acc.WriteF64(task, a, 3.25)
	if got := acc.ReadF64(task, a); got != 3.25 {
		t.Errorf("f64: %v", got)
	}
	acc.WriteI64(task, a+8, -77)
	if got := acc.ReadI64(task, a+8); got != -77 {
		t.Errorf("i64: %v", got)
	}
}

// TestBlockRoundTripAcrossPages: block ops spanning page boundaries agree
// with scalar ops.
func TestBlockRoundTripAcrossPages(t *testing.T) {
	acc, _, task := newAcc()
	const n = 1500 // ~3 pages of float64
	src := make([]float64, n)
	for i := range src {
		src[i] = float64(i) * 1.5
	}
	a := SpaceBase + 512 // start mid-page (8-aligned)
	acc.WriteF64s(task, a, src)
	dst := make([]float64, n)
	acc.ReadF64s(task, a, dst)
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatalf("f64s mismatch at %d", i)
		}
		if got := acc.ReadF64(task, a+Addr(i*8)); got != src[i] {
			t.Fatalf("scalar/block mismatch at %d", i)
		}
	}
	is := make([]int64, 600)
	for i := range is {
		is[i] = int64(-i)
	}
	acc.WriteI64s(task, a, is)
	ds := make([]int64, 600)
	acc.ReadI64s(task, a, ds)
	for i := range ds {
		if ds[i] != is[i] {
			t.Fatalf("i64s mismatch at %d", i)
		}
	}
}

func TestUnalignedAccessPanics(t *testing.T) {
	acc, _, task := newAcc()
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	acc.ReadF64(task, SpaceBase+3)
}

func TestWriteFaultOncePerInterval(t *testing.T) {
	acc, h, task := newAcc()
	for i := 0; i < 10; i++ {
		acc.WriteI64(task, SpaceBase+Addr(i*8), int64(i))
	}
	if h.writeFaults != 1 {
		t.Errorf("write faults: %d", h.writeFaults)
	}
	// Simulate an interval flush clearing the dirty bit.
	pc := acc.Sp.Copy(0, 0)
	pc.SetWritten(false)
	acc.WriteI64(task, SpaceBase, 9)
	if h.writeFaults != 2 {
		t.Errorf("write faults after flush: %d", h.writeFaults)
	}
}

func TestAccessesChargeTime(t *testing.T) {
	acc, _, task := newAcc()
	before := task.Now()
	acc.WriteF64(task, SpaceBase, 1)
	acc.ReadF64(task, SpaceBase)
	if task.Now() <= before {
		t.Error("accesses charged no time")
	}
}
