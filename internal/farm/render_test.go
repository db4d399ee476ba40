package farm

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"cables/internal/apps/appapi"
	"cables/internal/bench"
	"cables/internal/stats"
)

// goldenResult builds a result with every field set.  Each call returns a
// fresh, unencoded value: encoding drops Counters, so the reference and the
// rendered side must not share one.
func goldenResult(errMsg string, counters bool) *CellResult {
	r := &CellResult{
		Key:       strings.Repeat("ab", 32),
		Canonical: "cables-farm-v4|app=FFT|procs=4|backend=cables|scale=test|gran=0|contended=false|plan=send:p=0.01|seed=7|protocol=genima",
		Result: appapi.Result{App: "FFT", Backend: "cables", Procs: 4, Total: 123456789,
			Parallel: 98765432, Checksum: 13178.546660000001, Misplaced: 3, Touched: 17},
		Injected: 2, Degraded: errMsg == "", Err: errMsg, HostNS: 2760000,
	}
	if counters {
		r.Counters = stats.Snapshot{"pageFaults": 12, "diffs": 3, "<odd&name>": 1}
	}
	return r
}

// TestRenderMatchesEncodingJSON is the golden test of the renderer: for
// every cell status, kind and cache flag, a rendered cell is byte-identical
// to json.Marshal of the cellView it describes; a sweep body to the
// json.Encoder output of its sweepView; a summary to json.Marshal of its
// sweepSummary.  One result's error holds the characters encoding/json
// escapes.
func TestRenderMatchesEncodingJSON(t *testing.T) {
	const badErr = `bench: FFT panicked: <nil> & "quoted" \ tab` + "\t"
	statuses := []cellStatus{statQueued, statRunning, statDone, statFailed, statRejected}
	for _, kind := range []string{"fig5", "counters"} {
		spec := Spec{Kind: kind, Apps: []string{"FFT"}, Procs: []int{4}, Scale: "test",
			Plan: "send:p=0.01", Seed: 7}
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		counters := kind == "counters"
		sw := &sweep{id: "s000042", spec: spec}
		var want sweepView
		want.ID, want.Spec, want.Counts = sw.id, spec, map[string]int{"cached": 0}
		for _, cached := range []bool{false, true} {
			for _, st := range statuses {
				errMsg := ""
				if st == statFailed {
					errMsg = badErr
				}
				ref := cellRef{sw: sw, key: bench.Cell{App: "WATER-SPAT-FL", Procs: 16, Backend: "genima"},
					hash: strings.Repeat("0f", 32), status: st, cached: cached}
				view := cellView{Sweep: sw.id, Key: ref.hash, App: ref.key.App, Procs: ref.key.Procs,
					Backend: ref.key.Backend, Status: st.String(), Cached: cached, Retriable: st == statRejected}
				if st.hasResult() {
					ref.res = goldenResult(errMsg, true)
					view.Result = goldenResult(errMsg, counters)
				}
				wantCell, err := json.Marshal(view)
				if err != nil {
					t.Fatal(err)
				}
				if got := appendCell(nil, &ref, st); !bytes.Equal(got, wantCell) {
					t.Errorf("%s cell %s cached=%t:\n got %s\nwant %s", kind, st, cached, got, wantCell)
				}
				sw.refs = append(sw.refs, ref)
				want.Cells = append(want.Cells, view)
				want.Counts[st.String()]++
				if cached {
					want.Counts["cached"]++
				}
			}
		}
		for i := range sw.refs {
			sw.refs[i].idx = int32(i)
		}

		// The sweep is running while any cell waits, drained once a
		// terminal sweep holds a rejected cell, and done otherwise.
		for _, remaining := range []int{2, 0} {
			sw.remaining = remaining
			want.Status = "drained"
			if remaining > 0 {
				want.Status = "running"
			}
			snap := snapshot(sw, true)
			var enc bytes.Buffer
			if err := json.NewEncoder(&enc).Encode(want); err != nil {
				t.Fatal(err)
			}
			if got := appendSweep(nil, sw, &snap); !bytes.Equal(got, enc.Bytes()) {
				t.Errorf("%s sweep (%s):\n got %s\nwant %s", kind, want.Status, got, enc.Bytes())
			}
			wantSum, _ := json.Marshal(sweepSummary{ID: sw.id, Status: want.Status, Counts: want.Counts})
			if got := appendSummary(nil, sw.id, &snap); !bytes.Equal(got, wantSum) {
				t.Errorf("%s summary:\n got %s\nwant %s", kind, got, wantSum)
			}
		}
	}

	// A done sweep with no rejected cell, and strings outside the plain
	// ASCII the renderer writes verbatim.
	done := &sweep{id: "s000001", refs: []cellRef{{status: statDone, res: goldenResult("", false)}}}
	snap := snapshot(done, false)
	wantSum, _ := json.Marshal(sweepSummary{ID: done.id, Status: "done", Counts: map[string]int{"cached": 0, CellDone: 1}})
	if got := appendSummary(nil, done.id, &snap); !bytes.Equal(got, wantSum) {
		t.Errorf("done summary:\n got %s\nwant %s", got, wantSum)
	}
	for _, s := range []string{"", "FFT", "a<b>&c", `q"b\`, "é\u2028\x01"} {
		want, _ := json.Marshal(s)
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendString(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestUnencodableResultFails: a result encoding/json rejects (a NaN
// checksum) is served as a failed cell carrying the reason, never as
// missing bytes.
func TestUnencodableResultFails(t *testing.T) {
	r := &CellResult{Key: "k", Result: appapi.Result{Checksum: math.NaN()}, Counters: stats.Snapshot{"diffs": 1}}
	r.encode()
	for _, counters := range []bool{false, true} {
		var got CellResult
		if err := json.Unmarshal(r.encoded(counters), &got); err != nil {
			t.Fatalf("counters=%t: %v", counters, err)
		}
		if got.Key != "k" || !strings.Contains(got.Err, "not encodable") {
			t.Errorf("counters=%t: served key %q error %q, want key k and the encoding failure", counters, got.Key, got.Err)
		}
	}
	if st := terminalStatus(r); st != statFailed {
		t.Errorf("status %s, want failed", st)
	}
}

// TestCellEndpointServesEncodedResult: GET /v1/cells/{key} is the json
// encoding of the stored result with its counters, newline included —
// also for a result stored without going through a simulation, which is
// encoded the first time it is served.
func TestCellEndpointServesEncodedResult(t *testing.T) {
	srv, ts := newTestFarm(t, Config{Jobs: 1})
	key := strings.Repeat("cd", 32)
	srv.cache.Put(key, goldenResult("bench: <&>", true))
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(goldenResult("bench: <&>", true)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		code, body := getBody(t, ts, "/v1/cells/"+key)
		if code != http.StatusOK || !bytes.Equal(body, want.Bytes()) {
			t.Errorf("fetch %d: status %d\n got %s\nwant %s", i, code, body, want.Bytes())
		}
	}
}

// TestServedBodiesRoundTrip: every body the live farm serves — the 202,
// the sweep, the list, each stream event, the cell — decodes into its wire
// type and re-encodes with encoding/json to the same bytes, for a fig5 and
// a counters sweep over cold and cached cells.
func TestServedBodiesRoundTrip(t *testing.T) {
	srv, ts := newTestFarm(t, Config{Jobs: 2})
	srv.runCell = func(k bench.Cell) *CellResult {
		if k.Procs == 4 {
			return &CellResult{Err: `failed: <cell> & "why"`}
		}
		return goldenResult("", true)
	}
	roundTrip := func(what string, body []byte, v any, encoder bool) {
		t.Helper()
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("%s: %v (%s)", what, err, body)
		}
		var again []byte
		if encoder {
			var buf bytes.Buffer
			_ = json.NewEncoder(&buf).Encode(v)
			again = buf.Bytes()
		} else {
			again, _ = json.Marshal(v)
		}
		if !bytes.Equal(body, again) {
			t.Errorf("%s is not encoding/json's bytes:\n got %s\nwant %s", what, body, again)
		}
	}
	spec := `"apps":["FFT","LU"],"procs":[1,4],"backends":["genima"],"scale":"test"`
	for _, kind := range []string{"fig5", "counters", "fig5"} {
		resp, err := ts.Client().Post(ts.URL+"/v1/sweeps", "application/json",
			strings.NewReader(`{"kind":"`+kind+`",`+spec+`}`))
		if err != nil {
			t.Fatal(err)
		}
		var accepted bytes.Buffer
		_, _ = accepted.ReadFrom(resp.Body)
		resp.Body.Close()
		var sv sweepView
		roundTrip("202 body", accepted.Bytes(), &sv, true)
		waitSweep(t, ts, sv.ID)
		_, body := getBody(t, ts, "/v1/sweeps/"+sv.ID)
		roundTrip("sweep body", body, &sweepView{}, true)
		_, body = getBody(t, ts, "/v1/sweeps/"+sv.ID+"/stream?format=ndjson")
		for _, line := range bytes.SplitAfter(body, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var ev struct {
				Event string          `json:"event"`
				Data  json.RawMessage `json:"data"`
			}
			roundTrip("ndjson line", line, &ev, true)
			if ev.Event == "cell" {
				roundTrip("cell event", ev.Data, &cellView{}, false)
			} else {
				roundTrip("sweep event", ev.Data, &sweepSummary{}, false)
			}
		}
		for _, c := range sv.Cells {
			_, body = getBody(t, ts, "/v1/cells/"+c.Key)
			roundTrip("cell body", body, &CellResult{}, true)
		}
	}
	_, body := getBody(t, ts, "/v1/sweeps")
	roundTrip("list body", body, &struct {
		Sweeps []sweepSummary `json:"sweeps"`
	}{}, true)
	if misses := srv.metrics.cacheMisses.Load(); misses != 4 {
		t.Errorf("cacheMisses = %d, want 4", misses)
	}
}
