package appapi

import (
	"fmt"

	"cables/internal/sim"
)

// Result is what every workload reports; the experiment harness turns these
// into the paper's tables and figures.
type Result struct {
	App     string
	Backend string
	Procs   int

	// Total is the virtual time of the whole run, including initialization
	// and termination (where CableS's node-attach costs land).
	Total sim.Time
	// Parallel is the virtual time of the parallel section only — the
	// quantity plotted in Figure 5.
	Parallel sim.Time

	// Checksum validates the computation end to end through the coherence
	// protocol.
	Checksum float64

	// Misplaced/Touched give Figure 6's page-misplacement metric.
	Misplaced int
	Touched   int
}

// MisplacedPct returns the misplaced-page percentage.
func (r Result) MisplacedPct() float64 {
	if r.Touched == 0 {
		return 0
	}
	return 100 * float64(r.Misplaced) / float64(r.Touched)
}

// String summarizes the result on one line.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s p=%d total=%v parallel=%v checksum=%g misplaced=%.1f%%",
		r.App, r.Backend, r.Procs, r.Total, r.Parallel, r.Checksum, r.MisplacedPct())
}

// Section tracks the parallel section's virtual extent across workers: the
// latest start-barrier exit to the latest worker end.  The workers run one
// at a time in the cell's scheduler slot, so plain fields suffice.
type Section struct {
	start, end sim.Time
}

// Enter records t's exit from the start barrier.
func (s *Section) Enter(t *sim.Task) { s.start = max(s.start, t.Now()) }

// Leave records t's completion of parallel work.
func (s *Section) Leave(t *sim.Task) { s.end = max(s.end, t.Now()) }

// Duration returns the section's virtual length.
func (s *Section) Duration() sim.Time { return max(s.end-s.start, 0) }

// RunWorkers spawns procs workers executing body(task, proc) and joins them
// all from rt's main thread — the CREATE/WAIT_FOR_END template every
// SPLASH-2 application uses.
func RunWorkers(rt Runtime, procs int, body func(t *sim.Task, proc int)) {
	main := rt.Main()
	ids := make([]int, procs)
	for p := 0; p < procs; p++ {
		p := p
		ids[p] = rt.Spawn(main, func(t *sim.Task) { body(t, p) })
	}
	for _, id := range ids {
		rt.Join(main, id)
	}
}

// Share splits n items over procs in contiguous blocks, giving worker p
// its [lo,hi) range; the first n%procs workers take one item more.  It is
// the block partition of every SPLASH-2 port and of `omp for`.
func Share(n, procs, p int) (lo, hi int) {
	per := n / procs
	rem := n % procs
	lo = p*per + min(p, rem)
	hi = lo + per
	if p < rem {
		hi++
	}
	return lo, hi
}

// Sum adds sums in index order.  Each app keeps one slot per unit of work
// (a worker, or a tile or row handed out by a work queue), so its checksum
// does not depend on which worker did the unit or when.
func Sum(sums []float64) float64 {
	s := 0.0
	for _, v := range sums {
		s += v
	}
	return s
}

// Finalize fills the common Result fields from the runtime state.
func Finalize(rt Runtime, res *Result, sec *Section) {
	res.Backend = BackendName(rt)
	res.Procs = rt.Procs()
	res.Total = rt.Finish()
	res.Parallel = sec.Duration()
	res.Misplaced, res.Touched = rt.Acc().Sp.MisplacedPages()
}
