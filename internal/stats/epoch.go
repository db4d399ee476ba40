package stats

import (
	"slices"
	"sort"
)

// EpochLog captures per-phase counter windows.  A phase boundary — for the
// profiler, every barrier release — calls Mark with a label and the virtual
// instant; the log snapshots the counters there.  Windows then differences
// consecutive snapshots (in virtual-time order) into per-epoch counter
// deltas, which is how `cablesim profile` prints what each barrier epoch
// cost.
//
// The last arriver at a barrier marks the boundary from inside its cell's
// single scheduler slot, so a snapshot holds exactly the events the cell's
// tasks counted before it, and a cell windows the same way on every run.
type EpochLog struct {
	ctr   *Counters
	marks []epochMark
}

type epochMark struct {
	label string
	at    int64 // virtual ns of the boundary
	snap  Snapshot
}

// EpochWindow is one phase's counter delta: everything counted between the
// previous boundary (or the run start) and this one.
type EpochWindow struct {
	Label string
	At    int64 // virtual ns of the window's closing boundary
	Delta Snapshot
}

// NewEpochLog creates a log reading from c at every mark.
func NewEpochLog(c *Counters) *EpochLog { return &EpochLog{ctr: c} }

// Mark records a phase boundary labeled label at virtual instant at.
func (l *EpochLog) Mark(label string, at int64) {
	l.marks = append(l.marks, epochMark{label: label, at: at, snap: l.ctr.Snapshot()})
}

// Len reports how many boundaries have been marked.
func (l *EpochLog) Len() int { return len(l.marks) }

// Windows returns the per-phase counter deltas, ordered by boundary
// instant.  The first window counts from the run start (zero counters).
func (l *EpochLog) Windows() []EpochWindow {
	marks := slices.Clone(l.marks)
	// Stable sort: insertion order breaks ties between boundaries at the
	// same virtual instant (e.g. different barriers releasing together).
	sort.SliceStable(marks, func(i, j int) bool { return marks[i].at < marks[j].at })
	out := make([]EpochWindow, len(marks))
	var prev Snapshot
	for i, m := range marks {
		out[i] = EpochWindow{Label: m.label, At: m.at, Delta: m.snap.Delta(prev)}
		prev = m.snap
	}
	return out
}
