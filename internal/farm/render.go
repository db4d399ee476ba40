package farm

import (
	"encoding/json"
	"slices"
	"strconv"
)

// The wire forms below are the API's schema, and the decode targets of
// clients and tests.  The server does not encode them: it renders every
// view from each cell's stored result bytes (CellResult.encoded) with the
// append functions that follow, which produce exactly encoding/json's
// bytes for the struct in the same state (TestRenderMatchesEncodingJSON).

// cellView is the wire form of one sweep cell.  Sweep carries the owning
// sweep's id so every SSE/NDJSON progress event is self-identifying — a
// client multiplexing several streams can attribute each event without
// tracking which connection it arrived on.
type cellView struct {
	Sweep     string      `json:"sweep"`
	Key       string      `json:"key"`
	App       string      `json:"app"`
	Procs     int         `json:"procs"`
	Backend   string      `json:"backend"`
	Status    string      `json:"status"`
	Cached    bool        `json:"cached"`
	Retriable bool        `json:"retriable,omitempty"`
	Result    *CellResult `json:"result,omitempty"`
}

// sweepView is the wire form of one sweep.
type sweepView struct {
	ID     string         `json:"id"`
	Spec   Spec           `json:"spec"`
	Status string         `json:"status"`
	Counts map[string]int `json:"counts"`
	Cells  []cellView     `json:"cells"`
}

// sweepSummary is the wire form used by the list endpoint and the terminal
// stream event.
type sweepSummary struct {
	ID     string         `json:"id"`
	Status string         `json:"status"`
	Counts map[string]int `json:"counts"`
}

// sweepSnap is a sweep's state taken under s.mu, to be rendered after the
// lock is released.
type sweepSnap struct {
	status string
	counts [numStatuses]int
	cached int
	cells  []cellStatus // each cell's status; nil for a summary
}

// snapshot takes sw's state, with each cell's status when cells is set.
// Callers hold s.mu.
func snapshot(sw *sweep, cells bool) sweepSnap {
	var snap sweepSnap
	if cells {
		snap.cells = make([]cellStatus, len(sw.refs))
	}
	for i := range sw.refs {
		ref := &sw.refs[i]
		snap.counts[ref.status]++
		if ref.cached {
			snap.cached++
		}
		if cells {
			snap.cells[i] = ref.status
		}
	}
	switch {
	case sw.remaining > 0:
		snap.status = "running"
	case snap.counts[statRejected] > 0:
		snap.status = "drained"
	default:
		snap.status = "done"
	}
	return snap
}

// appendCell appends the cellView of ref at status st; kind=counters
// sweeps get the result with its counter snapshot, other kinds without.
// It needs no lock when st was read under s.mu: every field it reads was
// set before the cell reached st and is not written again, ref.res
// included, which it reads only for a status that carries a result.
func appendCell(b []byte, ref *cellRef, st cellStatus) []byte {
	b = append(b, `{"sweep":`...)
	b = appendString(b, ref.sw.id)
	b = append(b, `,"key":`...)
	b = appendString(b, ref.hash)
	b = append(b, `,"app":`...)
	b = appendString(b, ref.key.App)
	b = append(b, `,"procs":`...)
	b = strconv.AppendInt(b, int64(ref.key.Procs), 10)
	b = append(b, `,"backend":`...)
	b = appendString(b, ref.key.Backend)
	b = append(b, `,"status":"`...)
	b = append(b, st.String()...)
	b = append(b, `","cached":`...)
	b = strconv.AppendBool(b, ref.cached)
	if st == statRejected {
		b = append(b, `,"retriable":true`...)
	}
	if st.hasResult() {
		b = append(b, `,"result":`...)
		b = append(b, ref.res.encoded(ref.sw.spec.Kind == "counters")...)
	}
	return append(b, '}')
}

// cellHeaderBytes is a capacity hint: a little more than appendCell
// writes around a result.
const cellHeaderBytes = 256

// appendSweep appends the sweepView of sw in state snap, with the trailing
// newline of a json.Encoder body.
func appendSweep(b []byte, sw *sweep, snap *sweepSnap) []byte {
	spec, _ := json.Marshal(sw.spec) // strings, ints and bools always encode
	size := 2*cellHeaderBytes + len(spec) + len(sw.refs)*cellHeaderBytes
	for i, st := range snap.cells {
		if st.hasResult() {
			size += len(sw.refs[i].res.encoded(sw.spec.Kind == "counters"))
		}
	}
	b = slices.Grow(b, size)
	b = append(b, `{"id":`...)
	b = appendString(b, sw.id)
	b = append(b, `,"spec":`...)
	b = append(b, spec...)
	b = append(b, `,"status":"`...)
	b = append(b, snap.status...)
	b = append(b, `","counts":`...)
	b = appendCounts(b, snap)
	b = append(b, `,"cells":[`...)
	for i := range sw.refs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCell(b, &sw.refs[i], snap.cells[i])
	}
	return append(b, "]}\n"...)
}

// appendSummary appends the sweepSummary of sweep id in state snap.
func appendSummary(b []byte, id string, snap *sweepSnap) []byte {
	b = append(b, `{"id":`...)
	b = appendString(b, id)
	b = append(b, `,"status":"`...)
	b = append(b, snap.status...)
	b = append(b, `","counts":`...)
	b = appendCounts(b, snap)
	return append(b, '}')
}

// countOrder is the statuses in the sorted key order encoding/json gives a
// map, after "cached".
var countOrder = [...]cellStatus{statDone, statFailed, statQueued, statRejected, statRunning}

// appendCounts appends the counts map: "cached" always, each status only
// when some cell has it.
func appendCounts(b []byte, snap *sweepSnap) []byte {
	b = append(b, `{"cached":`...)
	b = strconv.AppendInt(b, int64(snap.cached), 10)
	for _, st := range countOrder {
		if n := snap.counts[st]; n > 0 {
			b = append(b, `,"`...)
			b = append(b, st.String()...)
			b = append(b, `":`...)
			b = strconv.AppendInt(b, int64(n), 10)
		}
	}
	return append(b, '}')
}

// appendString appends s as a JSON string.  The strings the renderer
// writes itself (sweep ids, content addresses, application and backend
// names) are plain ASCII that encoding/json writes verbatim; anything else
// takes encoding/json's own escaping.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// openFrame and closeFrame wrap one progress event of the given kind:
// an SSE frame, or an NDJSON line with ndjson set.
func openFrame(b []byte, kind string, ndjson bool) []byte {
	if ndjson {
		b = append(b, `{"event":"`...)
		b = append(b, kind...)
		return append(b, `","data":`...)
	}
	b = append(b, "event: "...)
	b = append(b, kind...)
	return append(b, "\ndata: "...)
}

func closeFrame(b []byte, ndjson bool) []byte {
	if ndjson {
		return append(b, "}\n"...)
	}
	return append(b, "\n\n"...)
}
