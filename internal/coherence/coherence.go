// Package coherence defines the pluggable coherence-policy seam of the
// simulator and its built-in implementations.
//
// The GeNIMA engine (internal/genima) owns the *mechanism* of home-based
// shared virtual memory — twins, diffs, write notices, the interval log,
// invalidation — and consults a Protocol for *policy*: which diffs may be
// batched into commutative merges, and whether a contended critical
// section should execute at the lock holder's node instead of migrating
// pages to the waiter.  Three protocols ship:
//
//   - genima: the baseline home-based write-invalidate protocol of the
//     paper.  Every hook is a no-op, so the engine behaves (and costs)
//     exactly as it did before the seam existed.
//   - commutative: pages observed to be write-shared (diffed to the same
//     home by more than one node) are treated as reduction targets.
//     Their diffs still reach the home byte-for-byte, but each flush
//     carries them in one `wire.merge` op per home instead of one
//     `wire.write` per page — the buffered-merge idea of the parallel
//     commutative-updates line of work.
//   - delegate: the first contended Acquire on a lock picks the current
//     holder's node as the lock's sticky delegation server; subsequent
//     contended critical sections ship a descriptor there (`wire.delreq`)
//     and execute against the server's memory, turning page ping-pong
//     into local hand-offs at the server (`wire.deldone` on return).
//
// Selection is by name: the -protocol flag of cmd/cablesim and the
// CABLES_PROTOCOL environment variable set the process default;
// bench.CellOptions and the farm spec carry an explicit per-cell override.
package coherence

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"cables/internal/memsys"
)

// Protocol is the policy seam consulted by the GeNIMA engine.  Hooks are
// called from simulated application threads concurrently; implementations
// must be safe for concurrent use.  Node arguments are always the task's
// *memory* node (sim.Task.MemNode), so a delegated critical section is
// observed at its server, not its origin.
type Protocol interface {
	// Name returns the protocol's registry name (one of Names).
	Name() string

	// Merge reports whether the engine should run a merge lane during
	// Flush (allocate the per-home merge batch and honor MergeDiff
	// verdicts).  Protocols that never merge return false so the genima
	// fast path stays allocation-free.
	Merge() bool

	// PageFetch observes a remote page fill: node fetched pid from home.
	PageFetch(node int, pid memsys.PageID, home int)

	// MergeDiff is consulted once per outbound diff (node flushing pid to
	// home, diffBytes of payload).  Returning true routes the diff into
	// the flush's merge batch — one wire op per home — instead of a
	// per-page remote write.  The verdict is only honored when Merge()
	// is true and the flush is running a merge lane.
	MergeDiff(node int, pid memsys.PageID, home, diffBytes int) bool

	// LockAcquire is consulted when an Acquire finds the lock held.
	// holderNode is the node the current holder is executing on, and
	// waiterNode the contender's home node.  A non-negative return is
	// the delegation server the waiter's critical section should execute
	// on; -1 leaves the acquire on the normal grant path.
	LockAcquire(lockID, holderNode, waiterNode int) int

	// LockRelease observes a release: the critical section executed on
	// execNode for a thread whose home is originNode.
	LockRelease(lockID, execNode, originNode int)

	// BarrierRelease observes the last arriver releasing a barrier.
	BarrierRelease(name string, parties int)
}

// Registry names, in the order of protocolNames.
const (
	ProtoGenima      = "genima"
	ProtoCommutative = "commutative"
	ProtoDelegate    = "delegate"
)

// protocolNames lists every selectable protocol.  cmd/doccheck parses
// this literal and cross-checks DESIGN.md / EXPERIMENTS.md, so a new
// protocol that is not documented fails `make docs`.
var protocolNames = []string{"genima", "commutative", "delegate"}

// Names returns the selectable protocol names (copy; callers may sort).
func Names() []string {
	out := make([]string, len(protocolNames))
	copy(out, protocolNames)
	return out
}

// Valid reports whether name selects a known protocol.
func Valid(name string) bool {
	for _, n := range protocolNames {
		if n == name {
			return true
		}
	}
	return false
}

// defaultProtocol is the process-wide default, settable once at startup
// via CABLES_PROTOCOL and at runtime via SetDefault (cablesim -protocol).
var defaultProtocol atomic.Pointer[string]

func init() {
	name := ProtoGenima
	if env := os.Getenv("CABLES_PROTOCOL"); env != "" {
		if !Valid(env) {
			panic(fmt.Sprintf("CABLES_PROTOCOL=%q: unknown protocol (have %v)", env, protocolNames))
		}
		name = env
	}
	defaultProtocol.Store(&name)
}

// DefaultName returns the process-default protocol name.
func DefaultName() string { return *defaultProtocol.Load() }

// SetDefault sets the process-default protocol.  It returns an error on
// an unknown name and ignores the empty string (keeps the current
// default), so flag plumbing can pass its value through unconditionally.
func SetDefault(name string) error {
	if name == "" {
		return nil
	}
	if !Valid(name) {
		return fmt.Errorf("unknown protocol %q (have %v)", name, protocolNames)
	}
	defaultProtocol.Store(&name)
	return nil
}

// New builds a fresh protocol instance by name; the empty string selects
// the process default.  Instances carry per-run state (write-sharing
// observations, delegation servers) and must not be shared across runs.
func New(name string) (Protocol, error) {
	if name == "" {
		name = DefaultName()
	}
	switch name {
	case ProtoGenima:
		return genimaProtocol{}, nil
	case ProtoCommutative:
		return newCommutative(), nil
	case ProtoDelegate:
		return newDelegate(), nil
	}
	return nil, fmt.Errorf("unknown protocol %q (have %v)", name, protocolNames)
}

// MustNew is New for known-good names (panics otherwise).
func MustNew(name string) Protocol {
	p, err := New(name)
	if err != nil {
		panic(err)
	}
	return p
}

// genimaProtocol is the baseline: every hook is a no-op, so the engine
// reproduces the pre-seam GeNIMA behavior bit for bit.  The zero-size
// struct keeps the per-diff MergeDiff consultation a trivial interface
// call with no state access (TestGenimaDispatchAllocFree keeps it
// allocation-free; bench.TestHostCostBudgets holds it at <=1% of a flush).
type genimaProtocol struct{}

func (genimaProtocol) Name() string                                    { return ProtoGenima }
func (genimaProtocol) Merge() bool                                     { return false }
func (genimaProtocol) PageFetch(int, memsys.PageID, int)               {}
func (genimaProtocol) MergeDiff(int, memsys.PageID, int, int) bool     { return false }
func (genimaProtocol) LockAcquire(lockID, holder, waiter int) int      { return -1 }
func (genimaProtocol) LockRelease(lockID, execNode, originNode int)    {}
func (genimaProtocol) BarrierRelease(string, int)                      {}

// commutative detects write-shared pages at runtime: the second distinct
// node that diffs a page marks it a reduction target, and every later
// diff of that page rides the flush's merge batch.  Detection state is a
// mutex-guarded map; the diff kernel (memsys.DiffPage over 4 KiB)
// dominates the per-diff cost by orders of magnitude.
type commutative struct {
	mu     sync.Mutex
	writer map[memsys.PageID]int32 // last diffing node + 1 (0 = none yet)
	shared map[memsys.PageID]bool  // observed multi-writer pages
}

func newCommutative() *commutative {
	return &commutative{
		writer: make(map[memsys.PageID]int32),
		shared: make(map[memsys.PageID]bool),
	}
}

func (c *commutative) Name() string { return ProtoCommutative }
func (c *commutative) Merge() bool  { return true }

func (c *commutative) PageFetch(int, memsys.PageID, int) {}

func (c *commutative) MergeDiff(node int, pid memsys.PageID, home, diffBytes int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.writer[pid]; w != 0 && w != int32(node)+1 {
		c.shared[pid] = true
	}
	c.writer[pid] = int32(node) + 1
	return c.shared[pid]
}

func (c *commutative) LockAcquire(lockID, holder, waiter int) int   { return -1 }
func (c *commutative) LockRelease(lockID, execNode, originNode int) {}
func (c *commutative) BarrierRelease(string, int)                   {}

// SharedPages returns the pages observed as write-shared so far, sorted
// (tests and diagnostics).
func (c *commutative) SharedPages() []memsys.PageID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]memsys.PageID, 0, len(c.shared))
	for pid := range c.shared {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// delegate assigns each lock a sticky delegation server: the node the
// holder was executing on at the lock's first contended acquire.  Every
// later contended critical section on that lock executes at the server,
// so the lock's data pages stop ping-ponging and grant hand-offs between
// queued waiters become server-local.
type delegate struct {
	mu     sync.Mutex
	server map[int]int // lock id -> sticky server node
}

func newDelegate() *delegate {
	return &delegate{server: make(map[int]int)}
}

func (d *delegate) Name() string { return ProtoDelegate }
func (d *delegate) Merge() bool  { return false }

func (d *delegate) PageFetch(int, memsys.PageID, int) {}

func (d *delegate) MergeDiff(int, memsys.PageID, int, int) bool { return false }

func (d *delegate) LockAcquire(lockID, holderNode, waiterNode int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if srv, ok := d.server[lockID]; ok {
		return srv
	}
	if holderNode < 0 {
		return -1
	}
	d.server[lockID] = holderNode
	return holderNode
}

func (d *delegate) LockRelease(lockID, execNode, originNode int) {}
func (d *delegate) BarrierRelease(string, int)                   {}

// ServerOf returns the sticky server chosen for a lock, or -1 if the
// lock has never been contended (tests and diagnostics).
func (d *delegate) ServerOf(lockID int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if srv, ok := d.server[lockID]; ok {
		return srv
	}
	return -1
}
