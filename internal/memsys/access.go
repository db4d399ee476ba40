package memsys

import (
	"encoding/binary"
	"fmt"
	"math"

	"cables/internal/sim"
)

// FaultHandler is implemented by the SVM protocol.  The accessor invokes it
// when a simulated access finds the local page copy unusable; the handler
// must make the copy valid for reading (ReadFault) or valid-and-writable
// with a twin captured and the page registered dirty (WriteFault), charging
// the faulting task for all protocol work.
type FaultHandler interface {
	ReadFault(t *sim.Task, pid PageID)
	WriteFault(t *sim.Task, pid PageID)
}

// Accessor is the application-facing view of the shared address space for
// one protocol backend.  All simulated shared-memory accesses go through it;
// it implements the page-fault check that VM hardware performs in the real
// system: one validity check and one load or store per word.
//
// The accessor takes no lock.  A cell's tasks — its coordinator included —
// run one at a time in the cell's single scheduler slot (sim.Scheduler),
// and neither the check-to-load window nor the store path holds a safe
// point, so no invalidation, flush or frame recycling can land between a
// task's validity check and its byte access.
type Accessor struct {
	Sp *Space
	H  FaultHandler
}

// NewAccessor binds a space to a protocol fault handler.
func NewAccessor(sp *Space, h FaultHandler) *Accessor {
	return &Accessor{Sp: sp, H: h}
}

func (a *Accessor) check(addr Addr, size int) (PageID, int) {
	if addr&(Addr(size)-1) != 0 {
		panic(fmt.Sprintf("memsys: unaligned %d-byte access at %#x", size, uint64(addr)))
	}
	if !a.Sp.Contains(addr, size) {
		panic(fmt.Sprintf("memsys: access [%#x,+%d) outside shared arena", uint64(addr), size))
	}
	return PageID((addr - SpaceBase) >> PageShift), int(addr & PageMask)
}

// pageForRead returns a readable copy of pid on the task's node, faulting
// until it is valid.  A fault may yield the slot, so validity is re-checked
// after every fault.
func (a *Accessor) pageForRead(t *sim.Task, pid PageID) *PageCopy {
	pc := a.Sp.Copy(t.MemNode(), pid)
	for !pc.Valid() {
		a.H.ReadFault(t, pid)
	}
	return pc
}

// pageForWrite returns a writable copy of pid on the task's node.
//
// This is the unshare-on-write trigger of the COW frame store: a valid,
// written page whose frame is still shared (aliased by its twin, by the
// home copy it was fetched from, by other nodes' replicas, or by the
// canonical zero frame) is privatized here before the store lands.  Every
// store re-checks exclusivity, so a frame a fetch re-shared since the last
// store is unshared again; the per-store fast path is the two flag loads
// and the refcount load.
func (a *Accessor) pageForWrite(t *sim.Task, pid PageID) *PageCopy {
	pc := a.Sp.Copy(t.MemNode(), pid)
	for !pc.Valid() || !pc.Written() {
		a.H.WriteFault(t, pid)
	}
	if f := pc.frame; f == nil || !f.Exclusive() {
		if _, copied := pc.EnsureExclusive(); copied && a.Sp.unshares != nil {
			a.Sp.unshares(t.MemNode())
		}
	}
	return pc
}

// --- Scalar accessors ---

// ReadF64 reads a float64 at addr.
func (a *Accessor) ReadF64(t *sim.Task, addr Addr) float64 {
	pid, off := a.check(addr, 8)
	pc := a.pageForRead(t, pid)
	v := binary.LittleEndian.Uint64(pc.Data()[off:])
	t.Compute(t.Costs().MemAccess)
	return math.Float64frombits(v)
}

// WriteF64 writes a float64 at addr.
func (a *Accessor) WriteF64(t *sim.Task, addr Addr, v float64) {
	pid, off := a.check(addr, 8)
	pc := a.pageForWrite(t, pid)
	binary.LittleEndian.PutUint64(pc.Data()[off:], math.Float64bits(v))
	t.Compute(t.Costs().MemAccess)
}

// ReadI64 reads an int64 at addr.
func (a *Accessor) ReadI64(t *sim.Task, addr Addr) int64 {
	pid, off := a.check(addr, 8)
	pc := a.pageForRead(t, pid)
	v := binary.LittleEndian.Uint64(pc.Data()[off:])
	t.Compute(t.Costs().MemAccess)
	return int64(v)
}

// WriteI64 writes an int64 at addr.
func (a *Accessor) WriteI64(t *sim.Task, addr Addr, v int64) {
	pid, off := a.check(addr, 8)
	pc := a.pageForWrite(t, pid)
	binary.LittleEndian.PutUint64(pc.Data()[off:], uint64(v))
	t.Compute(t.Costs().MemAccess)
}

// --- Strided accessors (column walks; per-word checks, batched charging) ---

// ReadF64Strided fills dst with groups of w consecutive float64s, group j
// at addr+j*stride bytes, exactly as the ReadF64 loop over those words would.
func (a *Accessor) ReadF64Strided(t *sim.Task, addr Addr, stride, w int, dst []float64) {
	a.walk(t, addr, stride, w, dst, false)
}

// WriteF64Strided stores src the same way, exactly as the WriteF64 loop.
func (a *Accessor) WriteF64Strided(t *sim.Task, addr Addr, stride, w int, src []float64) {
	a.walk(t, addr, stride, w, src, true)
}

// walk visits the words in the scalar loop's order and checks each as the
// scalar accessor does, but it counts each hit's Compute(MemAccess) instead
// of making it.  One ComputeN charges the run when it reaches Quiet, the hit
// whose own safe point would yield, and before a fault or an unshare, after
// which Quiet and MemNode are re-taken.  A hit neither spawns, wakes nor
// faults, so the clock, the yields and every fault land where per-word
// Compute puts them.
func (a *Accessor) walk(t *sim.Task, addr Addr, stride, w int, v []float64, write bool) {
	d := t.Costs().MemAccess
	quiet, hits, node := t.Quiet(d), 0, t.MemNode()
	for k := range v {
		pid, off := a.check(addr+Addr(k/w*stride+k%w*8), 8)
		pc := a.Sp.Copy(node, pid)
		if !pc.Valid() || write && (!pc.Written() || pc.frame == nil || !pc.frame.Exclusive()) {
			t.ComputeN(d, hits)
			if write {
				pc = a.pageForWrite(t, pid)
			} else {
				pc = a.pageForRead(t, pid)
			}
			quiet, hits, node = t.Quiet(d), 0, t.MemNode()
		}
		if word := pc.Data()[off:]; write {
			binary.LittleEndian.PutUint64(word, math.Float64bits(v[k]))
		} else {
			v[k] = math.Float64frombits(binary.LittleEndian.Uint64(word))
		}
		if hits++; hits == quiet {
			t.ComputeN(d, hits)
			quiet, hits = t.Quiet(d), 0
		}
	}
	t.ComputeN(d, hits)
}

// --- Block accessors (row loops; page-wise checks, one Compute per block) ---

// ReadF64s fills dst from the shared array starting at addr.
func (a *Accessor) ReadF64s(t *sim.Task, addr Addr, dst []float64) {
	if len(dst) == 0 {
		return
	}
	pid, off := a.check(addr, 8)
	i := 0
	for i < len(dst) {
		data := a.pageForRead(t, pid).Data()[off:]
		n := (PageSize - off) / 8
		if rem := len(dst) - i; n > rem {
			n = rem
		}
		out := dst[i : i+n]
		for k := range out {
			out[k] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*k:]))
		}
		i += n
		pid++
		off = 0
	}
	t.Compute(t.Costs().MemAccess * sim.Time(len(dst)))
}

// WriteF64s stores src into the shared array starting at addr.
func (a *Accessor) WriteF64s(t *sim.Task, addr Addr, src []float64) {
	if len(src) == 0 {
		return
	}
	pid, off := a.check(addr, 8)
	i := 0
	for i < len(src) {
		data := a.pageForWrite(t, pid).Data()[off:]
		n := (PageSize - off) / 8
		if rem := len(src) - i; n > rem {
			n = rem
		}
		for k, v := range src[i : i+n] {
			binary.LittleEndian.PutUint64(data[8*k:], math.Float64bits(v))
		}
		i += n
		pid++
		off = 0
	}
	t.Compute(t.Costs().MemAccess * sim.Time(len(src)))
}

// ReadI64s fills dst from the shared array starting at addr.
func (a *Accessor) ReadI64s(t *sim.Task, addr Addr, dst []int64) {
	if len(dst) == 0 {
		return
	}
	pid, off := a.check(addr, 8)
	i := 0
	for i < len(dst) {
		data := a.pageForRead(t, pid).Data()[off:]
		n := (PageSize - off) / 8
		if rem := len(dst) - i; n > rem {
			n = rem
		}
		out := dst[i : i+n]
		for k := range out {
			out[k] = int64(binary.LittleEndian.Uint64(data[8*k:]))
		}
		i += n
		pid++
		off = 0
	}
	t.Compute(t.Costs().MemAccess * sim.Time(len(dst)))
}

// WriteI64s stores src into the shared array starting at addr.
func (a *Accessor) WriteI64s(t *sim.Task, addr Addr, src []int64) {
	if len(src) == 0 {
		return
	}
	pid, off := a.check(addr, 8)
	i := 0
	for i < len(src) {
		data := a.pageForWrite(t, pid).Data()[off:]
		n := (PageSize - off) / 8
		if rem := len(src) - i; n > rem {
			n = rem
		}
		for k, v := range src[i : i+n] {
			binary.LittleEndian.PutUint64(data[8*k:], uint64(v))
		}
		i += n
		pid++
		off = 0
	}
	t.Compute(t.Costs().MemAccess * sim.Time(len(src)))
}
