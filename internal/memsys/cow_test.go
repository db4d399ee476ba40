package memsys

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cables/internal/sim"
)

// This file checks the COW frame store against an eager-copy reference
// model: every operation the protocol performs on page copies (fetch,
// write, twin capture, flush-diff, invalidate) is mirrored on a model that
// clones bytes at every step, and the two must agree on every observable
// byte at every point.  It also checks the bookkeeping invariants the
// frames rely on: refcount misuse panics, unshare is idempotent, and a
// released space returns framesResident to its prior level (no leaks).

const cowHome = 0 // the model homes every page on node 0

// eagerCopy is the reference model of one node's page copy: plain slices,
// cloned eagerly exactly where the pre-COW implementation copied.
type eagerCopy struct {
	valid, written bool
	data, twin     []byte
}

// eagerModel mirrors a Space's per-node copy table.
type eagerModel struct {
	copies [][]eagerCopy
}

func newEagerModel(nodes, pages int) *eagerModel {
	m := &eagerModel{copies: make([][]eagerCopy, nodes)}
	for n := range m.copies {
		m.copies[n] = make([]eagerCopy, pages)
	}
	return m
}

func (m *eagerModel) at(node int, pid PageID) *eagerCopy { return &m.copies[node][pid] }

// homeData returns the authoritative home image, creating it as zeroes on
// first use (the eager equivalent of aliasing the canonical zero frame).
func (m *eagerModel) homeData(pid PageID) []byte {
	h := m.at(cowHome, pid)
	if h.data == nil {
		h.data = make([]byte, PageSize)
	}
	return h.data
}

// fetch validates node's copy from the home image (an eager byte copy).
func (m *eagerModel) fetch(node int, pid PageID) {
	e := m.at(node, pid)
	if e.valid {
		return
	}
	if node == cowHome {
		m.homeData(pid)
	} else {
		e.data = bytes.Clone(m.homeData(pid))
	}
	e.valid = true
}

// writeFault is fetch plus twin capture (non-home) and the dirty bit.
func (m *eagerModel) writeFault(node int, pid PageID) {
	m.fetch(node, pid)
	e := m.at(node, pid)
	if node != cowHome && e.twin == nil {
		e.twin = bytes.Clone(e.data)
	}
	e.written = true
}

// cowRefHandler implements the accessor's FaultHandler with the same frame
// operations the genima protocol performs (alias on fetch, twin as a
// reference), mirroring each transition on the eager model.
type cowRefHandler struct {
	sp    *Space
	model *eagerModel
}

func (h *cowRefHandler) ReadFault(t *sim.Task, pid PageID) {
	pc := h.sp.Copy(t.NodeID, pid)
	if pc.Valid() {
		return // write fault on an already-valid copy: no refetch
	}
	if t.NodeID == cowHome {
		pc.EnsureFrame()
		pc.SetValid(true)
	} else {
		hc := h.sp.Copy(cowHome, pid)
		hc.EnsureFrame()
		pc.AdoptFrame(hc)
		pc.SetValid(true)
	}
	h.model.fetch(t.NodeID, pid)
}

func (h *cowRefHandler) WriteFault(t *sim.Task, pid PageID) {
	h.ReadFault(t, pid)
	pc := h.sp.Copy(t.NodeID, pid)
	if t.NodeID != cowHome && !pc.HasTwin() {
		pc.CaptureTwin()
	}
	pc.SetWritten(true)
	h.model.writeFault(t.NodeID, pid)
}

// cowWorld is the system under test plus its mirror.
type cowWorld struct {
	t     *testing.T
	sp    *Space
	acc   *Accessor
	model *eagerModel
	tasks []*sim.Task
	nodes int
	pages int
}

func newCowWorld(t *testing.T, nodes, pages int) *cowWorld {
	sp := NewSpace(nodes, int64(pages)*PageSize)
	model := newEagerModel(nodes, pages)
	w := &cowWorld{
		t:     t,
		sp:    sp,
		acc:   NewAccessor(sp, &cowRefHandler{sp: sp, model: model}),
		model: model,
		nodes: nodes,
		pages: pages,
	}
	for n := 0; n < nodes; n++ {
		w.tasks = append(w.tasks, sim.NewTask(n+1, n, sim.DefaultCosts()))
	}
	return w
}

// write stores a value through the real accessor (exercising the
// unshare-on-write trigger) and mirrors it, in host byte order, into the
// model.
func (w *cowWorld) write(node int, pid PageID, off int, v uint64) {
	w.acc.WriteI64(w.tasks[node], w.sp.PageAddr(pid)+Addr(off), int64(v))
	binary.NativeEndian.PutUint64(w.model.at(node, pid).data[off:], v)
}

// flush mirrors the protocol's release path for one written page: diff the
// (data, twin) pair into the home image, retire the twin, clear the bit.
func (w *cowWorld) flush(node int, pid PageID) {
	pc := w.sp.Copy(node, pid)
	e := w.model.at(node, pid)
	if !pc.Written() || e.written != pc.Written() {
		w.t.Fatalf("node %d page %d: written bit diverged (cow %v, eager %v)",
			node, pid, pc.Written(), e.written)
	}
	w.release(node, pid)
}

// release is flush without the written-bit check.
func (w *cowWorld) release(node int, pid PageID) {
	pc := w.sp.Copy(node, pid)
	e := w.model.at(node, pid)
	if node != cowHome {
		hd, _ := w.sp.Copy(cowHome, pid).EnsureExclusive()
		cowN := DiffPage(pc.Data(), pc.TwinData(), hd)
		eagerN := DiffPageRef(e.data, e.twin, w.model.homeData(pid))
		if cowN != eagerN {
			w.t.Fatalf("node %d page %d: diff size diverged (cow %d, eager %d)",
				node, pid, cowN, eagerN)
		}
		pc.RetireTwin()
		e.twin = nil
	}
	pc.SetWritten(false)
	e.written = false
}

// invalidate drops a non-home copy, force-flushing unflushed writes first
// (the false-sharing path).
func (w *cowWorld) invalidate(node int, pid PageID) {
	if node == cowHome {
		return
	}
	pc := w.sp.Copy(node, pid)
	e := w.model.at(node, pid)
	if pc.Written() {
		w.release(node, pid)
	}
	pc.SetValid(false)
	pc.RetireTwin()
	pc.RetireData()
	e.valid, e.written, e.data, e.twin = false, false, nil, nil
}

// verify compares every observable byte of one copy against the model.
func (w *cowWorld) verify(node int, pid PageID) {
	pc := w.sp.Copy(node, pid)
	e := w.model.at(node, pid)
	if pc.Valid() != e.valid {
		w.t.Fatalf("node %d page %d: validity diverged (cow %v, eager %v)", node, pid, pc.Valid(), e.valid)
	}
	if !e.valid {
		return
	}
	if !bytes.Equal(pc.Data(), e.data) {
		w.t.Fatalf("node %d page %d: data diverged from the eager reference", node, pid)
	}
	if (pc.HasTwin() && node != cowHome) != (e.twin != nil) {
		w.t.Fatalf("node %d page %d: twin presence diverged", node, pid)
	}
	if e.twin != nil && !bytes.Equal(pc.TwinData(), e.twin) {
		w.t.Fatalf("node %d page %d: twin diverged from the eager reference", node, pid)
	}
}

// TestCOWMatchesEagerReference is the property test: randomized
// read/write/fetch/flush/invalidate interleavings over several nodes and
// pages must keep the COW store byte-identical to the eager-copy reference,
// and releasing the space must return the resident-frame gauge to its
// starting level (no refcount leaks).
func TestCOWMatchesEagerReference(t *testing.T) {
	const nodes, pages, ops = 4, 8, 4000
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			baseline := FramesResident()
			w := newCowWorld(t, nodes, pages)
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				node := r.Intn(nodes)
				pid := PageID(r.Intn(pages))
				switch r.Intn(10) {
				case 0, 1, 2, 3: // write (faults, twins and unshares as needed)
					w.write(node, pid, r.Intn(PageSize/8)*8, r.Uint64())
				case 4, 5: // read through the accessor (faults if invalid)
					w.acc.ReadI64(w.tasks[node], w.sp.PageAddr(pid)+Addr(r.Intn(PageSize/8)*8))
					w.model.fetch(node, pid)
				case 6, 7: // release-side flush of a dirty page
					if w.sp.Copy(node, pid).Written() {
						w.flush(node, pid)
					}
				case 8: // acquire-side invalidation
					w.invalidate(node, pid)
				case 9: // zero-content write-back
					w.write(node, pid, r.Intn(PageSize/8)*8, 0)
				}
				w.verify(node, pid)
			}
			for n := 0; n < nodes; n++ {
				for p := PageID(0); p < PageID(pages); p++ {
					w.verify(n, p)
				}
			}
			w.sp.Release()
			if got := FramesResident(); got != baseline {
				t.Errorf("frame leak: %d frames resident after Release, baseline %d", got, baseline)
			}
		})
	}
}

// TestFrameRefcountMisuse: releasing a pooled frame below zero references
// panics rather than silently corrupting the pool.
func TestFrameRefcountMisuse(t *testing.T) {
	f := newFrame()
	f.Release() // back in the pool at 0 references
	defer func() {
		if recover() == nil {
			t.Error("release below zero did not panic")
		}
	}()
	f.Release()
}

// TestFramesPeakConcurrent: cells allocating at once must not lose the
// resident high-water mark.  n goroutines, each on its own space, hold k
// frames at a rendezvous — so n×k frames above the baseline are resident at
// once — and then release them.
func TestFramesPeakConcurrent(t *testing.T) {
	const n, k = 8, 64
	base := FramesResident()
	ResetFramesPeak()
	var held, done sync.WaitGroup
	held.Add(n)
	done.Add(n)
	for g := 0; g < n; g++ {
		go func() {
			defer done.Done()
			sp := NewSpace(1, k*PageSize)
			for p := PageID(0); p < k; p++ {
				sp.Copy(0, p).EnsureExclusive()
			}
			held.Done()
			held.Wait()
			sp.Release()
		}()
	}
	done.Wait()
	if got := FramesResidentPeak() - base; got < n*k {
		t.Errorf("peak %d frames above baseline, want at least %d", got, n*k)
	}
	if got := FramesResident(); got != base {
		t.Errorf("resident %d frames after release, baseline %d", got, base)
	}
}

// TestUnshareIdempotent: once a copy's frame is exclusive, further
// EnsureExclusive calls are no-ops (no double unshare, no extra frames).
func TestUnshareIdempotent(t *testing.T) {
	sp := NewSpace(1, 1<<16)
	pc := sp.Copy(0, 0)
	pc.EnsureExclusive()
	pc.Data()[0] = 1
	pc.CaptureTwin()
	if _, unshared := pc.EnsureExclusive(); !unshared {
		t.Fatal("twinned frame did not unshare")
	}
	before := FramesResident()
	f := pc.Frame()
	for i := 0; i < 3; i++ {
		if _, unshared := pc.EnsureExclusive(); unshared {
			t.Fatal("exclusive frame unshared again")
		}
	}
	if pc.Frame() != f || FramesResident() != before {
		t.Error("repeat EnsureExclusive changed the frame or allocated")
	}
	pc.RetireTwin()
}

// TestConcurrentUnshareHammer: many nodes alias one frame and unshare it in
// turn, as a cell's tasks do in its single scheduler slot; every node must
// end with a private frame carrying the original bytes plus exactly its own
// write, and the source must get its frame back to itself.
func TestConcurrentUnshareHammer(t *testing.T) {
	const nodes = 8
	for round := 0; round < 50; round++ {
		sp := NewSpace(nodes, 1<<16)
		src := sp.Copy(0, 0)
		src.EnsureExclusive()
		for i := range src.Data() {
			src.Data()[i] = byte(i)
		}
		for n := 1; n < nodes; n++ {
			pc := sp.Copy(n, 0)
			pc.AdoptFrame(src)
			pc.SetValid(true)
		}
		// Unshare in a different node order each round.
		for k := 1; k < nodes; k++ {
			n := 1 + (k+round)%(nodes-1)
			pc := sp.Copy(n, 0)
			pc.EnsureExclusive()
			pc.Data()[0] = byte(0x80 + n)
		}
		if !src.Frame().Exclusive() {
			t.Fatal("source frame still shared after every alias unshared")
		}
		for n := 1; n < nodes; n++ {
			pc := sp.Copy(n, 0)
			if !pc.Frame().Exclusive() {
				t.Fatalf("node %d frame still shared after unshare", n)
			}
			if got := pc.Data()[0]; got != byte(0x80+n) {
				t.Fatalf("node %d lost its write: %#x", n, got)
			}
			for i := 1; i < PageSize; i++ {
				if pc.Data()[i] != byte(i) {
					t.Fatalf("node %d byte %d corrupted during unshare", n, i)
				}
			}
		}
		sp.Release()
	}
}
