package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Trace process ids: the harness's own lanes, and the probe child's.
const (
	pidHarness = 1
	pidProbe   = 2
)

// span is one timed interval on a lane.  Lanes are (pid, tid) pairs in the
// Chrome trace: one per client connection, one per probe worker.
type span struct {
	Pid   int    `json:"pid"`
	Lane  int    `json:"lane"`
	Name  string `json:"name"`
	Start int64  `json:"start"` // ns since the Unix epoch
	End   int64  `json:"end"`
}

// recorder keeps spans in memory until the run ends.  A nil recorder is
// tracing switched off: add is then a no-op, so call sites need no branch.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(pid, lane int, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{pid, lane, name, start.UnixNano(), end.UnixNano()})
	r.mu.Unlock()
}

func (r *recorder) addAll(spans []span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, spans...)
	r.mu.Unlock()
}

// traceEvent is one Chrome trace-viewer event (the subset cmd/traceck reads).
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`            // µs
	Dur  float64 `json:"dur,omitempty"` // µs
}

// write renders the spans as Chrome-trace JSON.  Every lane gets one root
// span covering all of its spans, and spans are emitted per lane in open
// order with the longer of two equal starts first, which is the nesting
// cmd/traceck (and Perfetto's flame view) require.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()

	type lane struct{ pid, tid int }
	byLane := map[lane][]span{}
	t0 := int64(0)
	for _, s := range spans {
		if t0 == 0 || s.Start < t0 {
			t0 = s.Start
		}
		k := lane{s.Pid, s.Lane}
		byLane[k] = append(byLane[k], s)
	}
	lanes := make([]lane, 0, len(byLane))
	for k := range byLane {
		lanes = append(lanes, k)
	}
	sort.Slice(lanes, func(i, j int) bool {
		if lanes[i].pid != lanes[j].pid {
			return lanes[i].pid < lanes[j].pid
		}
		return lanes[i].tid < lanes[j].tid
	})

	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	events := []traceEvent{}
	for _, k := range lanes {
		ss := byLane[k]
		sort.SliceStable(ss, func(i, j int) bool {
			if ss[i].Start != ss[j].Start {
				return ss[i].Start < ss[j].Start
			}
			return ss[i].End > ss[j].End
		})
		root := span{Pid: k.pid, Lane: k.tid, Name: "lane", Start: ss[0].Start, End: ss[0].End}
		for _, s := range ss {
			if s.End > root.End {
				root.End = s.End
			}
		}
		for _, s := range append([]span{root}, ss...) {
			events = append(events, traceEvent{Name: s.Name, Ph: "X", Pid: s.Pid, Tid: s.Lane,
				Ts: us(s.Start - t0), Dur: us(s.End - s.Start)})
		}
	}
	doc := map[string]any{"displayTimeUnit": "ms", "traceEvents": events}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
