package stats

import (
	"fmt"
	"sort"
	"strings"

	"cables/internal/sim"
)

// OpStats accumulates per-API-call virtual-time costs; Table 5 reports the
// averages per program.  One cell's tasks record into it, one at a time.
type OpStats struct {
	agg map[string]*opAgg
}

type opAgg struct {
	count int64
	total sim.Time
}

// Time runs fn and books its virtual duration on t's clock under op.
func (s *OpStats) Time(t *sim.Task, op string, fn func()) {
	before := t.Now()
	fn()
	s.Record(op, t.Now()-before)
}

// Record books one occurrence of op costing d.
func (s *OpStats) Record(op string, d sim.Time) {
	if s.agg == nil {
		s.agg = make(map[string]*opAgg)
	}
	a := s.agg[op]
	if a == nil {
		a = &opAgg{}
		s.agg[op] = a
	}
	a.count++
	a.total += d
}

// Avg returns the mean cost of op and how often it ran.
func (s *OpStats) Avg(op string) (sim.Time, int64) {
	a := s.agg[op]
	if a == nil || a.count == 0 {
		return 0, 0
	}
	return a.total / sim.Time(a.count), a.count
}

// Ops lists the measured operations in sorted order.
func (s *OpStats) Ops() []string {
	ops := make([]string, 0, len(s.agg))
	for op := range s.agg {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	return ops
}

// String renders "op=avg(xN)" pairs.
func (s *OpStats) String() string {
	var parts []string
	for _, op := range s.Ops() {
		avg, n := s.Avg(op)
		parts = append(parts, fmt.Sprintf("%s=%v(x%d)", op, avg, n))
	}
	return strings.Join(parts, " ")
}
