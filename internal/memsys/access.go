package memsys

import (
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
// task's validity check and its word access.
type Accessor struct {
	Sp *Space
	H  FaultHandler
}

// NewAccessor binds a space to a protocol fault handler.
func NewAccessor(sp *Space, h FaultHandler) *Accessor {
	return &Accessor{Sp: sp, H: h}
}

// check admits an aligned 8-byte word inside the arena and returns its page
// and its word index within the page.
func (a *Accessor) check(addr Addr) (PageID, int) {
	if addr&7 != 0 {
		panic(fmt.Sprintf("memsys: unaligned 8-byte access at %#x", uint64(addr)))
	}
	if !a.Sp.Contains(addr, 8) {
		panic(fmt.Sprintf("memsys: access [%#x,+8) outside shared arena", uint64(addr)))
	}
	return PageID((addr - SpaceBase) >> PageShift), int(addr&PageMask) >> 3
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

// load reads the word at addr.
func (a *Accessor) load(t *sim.Task, addr Addr) uint64 {
	pid, w := a.check(addr)
	v := a.pageForRead(t, pid).words[w]
	t.Compute(t.Costs().MemAccess)
	return v
}

// store writes the word at addr.
func (a *Accessor) store(t *sim.Task, addr Addr, v uint64) {
	pid, w := a.check(addr)
	a.pageForWrite(t, pid).words[w] = v
	t.Compute(t.Costs().MemAccess)
}

// ReadF64 reads a float64 at addr.
func (a *Accessor) ReadF64(t *sim.Task, addr Addr) float64 {
	return math.Float64frombits(a.load(t, addr))
}

// WriteF64 writes a float64 at addr.
func (a *Accessor) WriteF64(t *sim.Task, addr Addr, v float64) {
	a.store(t, addr, math.Float64bits(v))
}

// ReadI64 reads an int64 at addr.
func (a *Accessor) ReadI64(t *sim.Task, addr Addr) int64 { return int64(a.load(t, addr)) }

// WriteI64 writes an int64 at addr.
func (a *Accessor) WriteI64(t *sim.Task, addr Addr, v int64) { a.store(t, addr, uint64(v)) }

// --- Strided accessors (column walks; per-word checks, batched charging) ---

// ReadF64Strided fills dst with groups of w consecutive float64s, group j
// at addr+j*stride bytes, exactly as the ReadF64 loop over those words would.
func (a *Accessor) ReadF64Strided(t *sim.Task, addr Addr, stride, w int, dst []float64) {
	a.walk(t, addr, stride, w, f64Words(dst), false)
}

// WriteF64Strided stores src the same way, exactly as the WriteF64 loop.
func (a *Accessor) WriteF64Strided(t *sim.Task, addr Addr, stride, w int, src []float64) {
	a.walk(t, addr, stride, w, f64Words(src), true)
}

// walk visits the words in the scalar loop's order, group by group so that
// no address needs a divide, and checks each as the scalar accessor does,
// but it counts each hit's Compute(MemAccess) instead of making it.  One
// ComputeN charges the run when it reaches Quiet, the hit whose own safe
// point would yield, and before a fault or an unshare, after which Quiet and
// MemNode are re-taken.  A hit neither spawns, wakes nor faults, so the
// clock, the yields and every fault land where per-word Compute puts them.
func (a *Accessor) walk(t *sim.Task, addr Addr, stride, w int, v []uint64, write bool) {
	if w <= 0 {
		panic("memsys: strided walk with an empty group")
	}
	d := t.Costs().MemAccess
	quiet, hits, node := t.Quiet(d), 0, t.MemNode()
	for lo, base := 0, addr; lo < len(v); lo, base = lo+w, base+Addr(stride) {
		grp := v[lo:min(lo+w, len(v))]
		for j := range grp {
			pid, i := a.check(base + Addr(j*8))
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
			if write {
				pc.words[i] = grp[j]
			} else {
				grp[j] = pc.words[i]
			}
			if hits++; hits == quiet {
				t.ComputeN(d, hits)
				quiet, hits = t.Quiet(d), 0
			}
		}
	}
	t.ComputeN(d, hits)
}

// --- Block accessors (row loops; page-wise checks, one Compute per block) ---

// ReadF64s fills dst from the shared array starting at addr.
func (a *Accessor) ReadF64s(t *sim.Task, addr Addr, dst []float64) {
	a.block(t, addr, f64Words(dst), false)
}

// WriteF64s stores src into the shared array starting at addr.
func (a *Accessor) WriteF64s(t *sim.Task, addr Addr, src []float64) {
	a.block(t, addr, f64Words(src), true)
}

// ReadI64s fills dst from the shared array starting at addr.
func (a *Accessor) ReadI64s(t *sim.Task, addr Addr, dst []int64) {
	a.block(t, addr, i64Words(dst), false)
}

// WriteI64s stores src into the shared array starting at addr.
func (a *Accessor) WriteI64s(t *sim.Task, addr Addr, src []int64) {
	a.block(t, addr, i64Words(src), true)
}

// block moves v to (write) or from the words starting at addr: one check
// and one copy per page, then one Compute for the whole block.
func (a *Accessor) block(t *sim.Task, addr Addr, v []uint64, write bool) {
	if len(v) == 0 {
		return
	}
	pid, w := a.check(addr)
	for i := 0; i < len(v); pid, w = pid+1, 0 {
		if write {
			i += copy(a.pageForWrite(t, pid).words[w:], v[i:])
		} else {
			i += copy(v[i:], a.pageForRead(t, pid).words[w:])
		}
	}
	t.Compute(t.Costs().MemAccess * sim.Time(len(v)))
}
