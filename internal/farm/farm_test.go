package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"cables/internal/apps/appapi"
	"cables/internal/bench"
)

// newTestFarm builds a server plus an HTTP front for it and arranges a full
// drain at cleanup so no worker goroutine outlives the test.
func newTestFarm(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain()
	})
	return srv, ts
}

// postSweep submits a spec and decodes the accepted sweep view.
func postSweep(t *testing.T, ts *httptest.Server, spec string) sweepView {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: status %d body %s", resp.StatusCode, body)
	}
	var sv sweepView
	if err := json.Unmarshal(body, &sv); err != nil {
		t.Fatalf("decode sweep: %v (%s)", err, body)
	}
	return sv
}

// getSweep fetches one sweep view.
func getSweep(t *testing.T, ts *httptest.Server, id string) sweepView {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatalf("GET sweep: %v", err)
	}
	defer resp.Body.Close()
	var sv sweepView
	if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
		t.Fatalf("decode sweep: %v", err)
	}
	return sv
}

// waitSweep polls until the sweep leaves "running" (or the deadline hits).
func waitSweep(t *testing.T, ts *httptest.Server, id string) sweepView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		sv := getSweep(t, ts, id)
		if sv.Status != "running" {
			return sv
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not finish", id)
	return sweepView{}
}

// getBody fetches a URL and returns (status, raw body).
func getBody(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// admissionInvariant checks cellsAdmitted == cacheHits+cellsCoalesced+cacheMisses.
func admissionInvariant(t *testing.T, s *Server) {
	t.Helper()
	m := s.metrics
	admitted, hits, coalesced, misses := m.cellsAdmitted.Load(), m.cacheHits.Load(), m.cellsCoalesced.Load(), m.cacheMisses.Load()
	if admitted != hits+coalesced+misses {
		t.Errorf("admission invariant broken: admitted %d != hits %d + coalesced %d + misses %d",
			admitted, hits, coalesced, misses)
	}
}

// terminalInvariant checks, on an idle farm, that every admitted cell
// reached exactly one terminal counter: cellsAdmitted == cellsDone +
// cellsFailed + cellsRejected.
func terminalInvariant(t *testing.T, s *Server) {
	t.Helper()
	m := s.metrics
	admitted, done, failed, rejected := m.cellsAdmitted.Load(), m.cellsDone.Load(), m.cellsFailed.Load(), m.cellsRejected.Load()
	if admitted != done+failed+rejected {
		t.Errorf("terminal invariant broken: admitted %d != done %d + failed %d + rejected %d",
			admitted, done, failed, rejected)
	}
}

// TestCacheServesIdenticalResults is the acceptance-criterion test: an
// identical sweep against a warm instance re-simulates zero cells, every
// cell is served from cache, and the served results — checksums above all —
// are bit-identical to the cold run.  The subtest is named for the
// event-driven run queue, the one thread manager.
func TestCacheServesIdenticalResults(t *testing.T) {
	t.Run("event", cacheServesIdenticalResults)
}

func cacheServesIdenticalResults(t *testing.T) {
	srv, ts := newTestFarm(t, Config{Jobs: 2})
	spec := `{"kind":"counters","apps":["FFT"],"procs":[1,4],"scale":"test"}`

	cold := waitSweep(t, ts, postSweep(t, ts, spec).ID)
	if cold.Status != "done" {
		t.Fatalf("cold sweep: status %s", cold.Status)
	}
	if n := len(cold.Cells); n != 4 {
		t.Fatalf("cold sweep: %d cells, want 4", n)
	}
	misses := srv.metrics.cacheMisses.Load()
	if misses != 4 {
		t.Fatalf("cold sweep: %d misses, want 4", misses)
	}

	for _, c := range cold.Cells {
		if c.Result == nil || c.Result.Err != "" {
			t.Fatalf("cell %s/%d: missing or failed result", c.App, c.Procs)
		}
	}
	// Fresh out-of-band runs prove the cached payloads carry the
	// deterministic results, not stale or swapped entries.
	servesItsCells(t, srv, spec)

	warm := waitSweep(t, ts, postSweep(t, ts, spec).ID)
	if warm.Status != "done" {
		t.Fatalf("warm sweep: status %s", warm.Status)
	}
	if srv.metrics.cacheMisses.Load() != misses {
		t.Errorf("warm sweep re-simulated cells: misses %d -> %d",
			misses, srv.metrics.cacheMisses.Load())
	}
	if hits := srv.metrics.cacheHits.Load(); hits != 4 {
		t.Errorf("warm sweep: %d cache hits, want 4", hits)
	}
	for i, c := range warm.Cells {
		if !c.Cached || c.Status != CellDone {
			t.Errorf("warm cell %d: cached=%t status=%s", i, c.Cached, c.Status)
		}
	}

	// Bit-identity of the served bytes: the result payload of each
	// warm cell must equal the cold one's, and two fetches of the
	// content address must return identical bodies.
	for i := range cold.Cells {
		cb, _ := json.Marshal(cold.Cells[i].Result)
		wb, _ := json.Marshal(warm.Cells[i].Result)
		if !bytes.Equal(cb, wb) {
			t.Errorf("cell %d: warm result bytes differ from cold", i)
		}
		code1, b1 := getBody(t, ts, "/v1/cells/"+cold.Cells[i].Key)
		code2, b2 := getBody(t, ts, "/v1/cells/"+cold.Cells[i].Key)
		if code1 != http.StatusOK || !bytes.Equal(b1, b2) {
			t.Errorf("cell %d: content-address fetches differ (codes %d/%d)", i, code1, code2)
		}
	}
	admissionInvariant(t, srv)
}

// servesItsCells checks that the result srv caches for each cell of spec
// equals, with ==, a fresh bench.RunCell of the very cell the spec
// expands to: the farm runs exactly the cell it hashes.  It returns those
// results.
func servesItsCells(t *testing.T, srv *Server, spec string) []appapi.Result {
	t.Helper()
	var s Spec
	if err := json.Unmarshal([]byte(spec), &s); err != nil {
		t.Fatal(err)
	}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	var out []appapi.Result
	for _, c := range s.Cells() {
		res, ok := srv.cache.Get(c.Hash())
		if !ok {
			t.Fatalf("%s: %s is not cached under its hash", spec, c.Label())
		}
		fresh := bench.RunCell(c, bench.Attach{})
		if fresh.Err != nil {
			t.Fatalf("%s: fresh %s: %v", spec, c.Label(), fresh.Err)
		}
		if res.Result != fresh.Res {
			t.Errorf("%s: farm result %v != fresh run of %s %v", spec, res.Result, c.Label(), fresh.Res)
		}
		out = append(out, res.Result)
	}
	return out
}

// TestCacheNearMiss: flipping any single code-relevant field must miss the
// cache, while code-irrelevant differences (kind, seed without a plan)
// must hit it.  Every spec's result is the fresh run of its cell.
// TestCacheNearMissProtocol does the same for the protocol field.
func TestCacheNearMiss(t *testing.T) {
	srv, ts := newTestFarm(t, Config{Jobs: 2})
	base := `"apps":["FFT"],"procs":[1],"backends":["genima"],"scale":"test"`
	run := func(spec string) {
		t.Helper()
		sv := waitSweep(t, ts, postSweep(t, ts, spec).ID)
		if sv.Status != "done" {
			t.Fatalf("sweep %s: status %s", spec, sv.Status)
		}
		servesItsCells(t, srv, spec)
	}

	run(`{` + base + `}`)
	misses := srv.metrics.cacheMisses.Load()
	if misses != 1 {
		t.Fatalf("base sweep: %d misses, want 1", misses)
	}

	for i, variant := range []string{
		`{` + base + `,"contendedSync":true}`,
		`{` + base + `,"gran":4096}`,
		`{` + base + `,"plan":"send:p=0.01","seed":1}`,
		`{` + base + `,"plan":"send:p=0.01","seed":2}`,
		`{` + base + `,"scale":"paper"}`,
	} {
		run(variant)
		want := misses + int64(i) + 1
		if got := srv.metrics.cacheMisses.Load(); got != want {
			t.Errorf("variant %d (%s): misses %d, want %d (must not hit the cache)", i, variant, got, want)
		}
	}
	total := srv.metrics.cacheMisses.Load()

	// Code-irrelevant differences: a different seed with no fault plan is
	// canonicalized away, the model's default granularity spelled out is
	// the default, and kind only changes rendering.
	for _, same := range []string{
		`{` + base + `,"seed":99}`,
		`{` + base + `,"gran":65536}`,
		`{` + base + `,"kind":"counters"}`,
		`{` + base + `,"kind":"fig6"}`,
	} {
		run(same)
		if got := srv.metrics.cacheMisses.Load(); got != total {
			t.Errorf("spec %s: missed the cache (misses %d -> %d), want hit", same, total, got)
		}
	}
	admissionInvariant(t, srv)
}

// TestFarmGranularityErasesMisplacement: the farm's gran field reaches the
// cell it runs.  LU on CableS at 8 processors misplaces pages at the
// default 64 KB mapping units and none at 4 KB, through the farm exactly
// as through bench.RunCell.
func TestFarmGranularityErasesMisplacement(t *testing.T) {
	srv, ts := newTestFarm(t, Config{Jobs: 2})
	base := `"apps":["LU"],"procs":[8],"backends":["cables"],"scale":"test"`
	for _, tc := range []struct {
		spec      string
		misplaced bool
	}{{`{` + base + `}`, true}, {`{` + base + `,"gran":4096}`, false}} {
		waitSweep(t, ts, postSweep(t, ts, tc.spec).ID)
		if n := servesItsCells(t, srv, tc.spec)[0].Misplaced; (n > 0) != tc.misplaced {
			t.Errorf("%s: %d pages misplaced, want any: %t", tc.spec, n, tc.misplaced)
		}
	}
}

// TestConcurrentSweepsCoalesce: identical cells submitted by concurrent
// clients while the first is still queued/running must coalesce onto one
// simulation — never run twice.
func TestConcurrentSweepsCoalesce(t *testing.T) {
	srv, _ := newTestFarm(t, Config{Jobs: 1})
	release := make(chan struct{})
	srv.runCell = func(k bench.Cell) *CellResult {
		<-release
		return &CellResult{}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := `{"apps":["FFT","LU"],"procs":[1],"backends":["genima"],"scale":"test"}`
	ids := make([]string, 3)
	for i := range ids {
		ids[i] = postSweep(t, ts, spec).ID
	}
	close(release)
	for _, id := range ids {
		if sv := waitSweep(t, ts, id); sv.Status != "done" {
			t.Fatalf("sweep %s: status %s", id, sv.Status)
		}
	}
	if misses := srv.metrics.cacheMisses.Load(); misses != 2 {
		t.Errorf("misses = %d, want 2 (one per unique cell)", misses)
	}
	if dup := srv.metrics.cellsCoalesced.Load() + srv.metrics.cacheHits.Load(); dup != 4 {
		t.Errorf("coalesced+hits = %d, want 4 (duplicate cells must not re-simulate)", dup)
	}
	admissionInvariant(t, srv)
}

// TestPanickedCellNotCached: a cell whose simulation panicked is returned
// to its sweep as failed but is not cached, so resubmitting it simulates it
// again; a deterministic failure is cached like any other result.
func TestPanickedCellNotCached(t *testing.T) {
	srv, ts := newTestFarm(t, Config{Jobs: 1})
	srv.runCell = func(k bench.Cell) *CellResult {
		if k.App == "FFT" {
			panic("wedged")
		}
		return &CellResult{Err: "bench: registration failed"}
	}
	for i, tc := range []struct {
		app        string
		wantMisses int64
		wantErr    string
	}{
		{"FFT", 1, "farm: cell panicked: wedged"},
		{"FFT", 2, "farm: cell panicked: wedged"},
		{"OCEAN", 3, "bench: registration failed"},
		{"OCEAN", 3, "bench: registration failed"},
	} {
		sv := waitSweep(t, ts, postSweep(t, ts,
			`{"apps":["`+tc.app+`"],"procs":[32],"backends":["genima"],"scale":"test"}`).ID)
		c := sv.Cells[0]
		if c.Status != CellFailed || c.Result == nil || c.Result.Err != tc.wantErr {
			t.Errorf("sweep %d: cell %s, result %+v; want failed with %q", i, c.Status, c.Result, tc.wantErr)
		}
		if got := srv.metrics.cacheMisses.Load(); got != tc.wantMisses {
			t.Errorf("sweep %d (%s): cacheMisses = %d, want %d", i, tc.app, got, tc.wantMisses)
		}
	}
	admissionInvariant(t, srv)
	terminalInvariant(t, srv)
}

// TestConcurrentViews renders every view while cells complete: clients
// submit overlapping sweeps, follow their streams live and poll sweeps and
// cells, so rendering outside s.mu races simulations, completions and the
// first encoding of a result stored unencoded (run it under -race).
func TestConcurrentViews(t *testing.T) {
	srv, ts := newTestFarm(t, Config{Jobs: 2})
	srv.runCell = func(k bench.Cell) *CellResult {
		time.Sleep(time.Millisecond)
		return &CellResult{Counters: map[string]int64{"faults": int64(k.Procs)}}
	}
	stored := strings.Repeat("ef", 32)
	srv.cache.Put(stored, &CellResult{Key: stored, Counters: map[string]int64{"diffs": 1}})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 5; i++ {
				kind := [...]string{"fig5", "counters"}[g%2]
				sv := postSweep(t, ts, fmt.Sprintf(
					`{"kind":%q,"apps":["FFT","LU"],"procs":[1,%d],"backends":["genima"],"scale":"test"}`, kind, 2+i))
				_, stream := getBody(t, ts, "/v1/sweeps/"+sv.ID+"/stream")
				if !bytes.Contains(stream, []byte("event: sweep")) {
					t.Errorf("stream of %s has no sweep event", sv.ID)
				}
				getBody(t, ts, "/v1/sweeps/"+sv.ID)
				getBody(t, ts, "/v1/cells/"+sv.Cells[0].Key)
				getBody(t, ts, "/v1/cells/"+stored)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	admissionInvariant(t, srv)
	terminalInvariant(t, srv)
}

// TestStreamFormats: the progress stream replays every cell transition and
// terminates with the sweep event, in both SSE and NDJSON framing.
func TestStreamFormats(t *testing.T) {
	srv, ts := newTestFarm(t, Config{Jobs: 1})
	srv.runCell = func(k bench.Cell) *CellResult { return &CellResult{} }
	sv := waitSweep(t, ts, postSweep(t, ts,
		`{"apps":["FFT"],"procs":[1],"backends":["genima","cables"],"scale":"test"}`).ID)

	code, body := getBody(t, ts, "/v1/sweeps/"+sv.ID+"/stream")
	if code != http.StatusOK {
		t.Fatalf("stream: status %d", code)
	}
	if got := strings.Count(string(body), "event: cell"); got < 4 {
		t.Errorf("SSE stream: %d cell events, want >= 4 (queued+done per cell):\n%s", got, body)
	}
	if !strings.Contains(string(body), "event: sweep") {
		t.Errorf("SSE stream missing terminal sweep event:\n%s", body)
	}

	code, body = getBody(t, ts, "/v1/sweeps/"+sv.ID+"/stream?format=ndjson")
	if code != http.StatusOK {
		t.Fatalf("ndjson stream: status %d", code)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var last struct {
		Event string          `json:"event"`
		Data  json.RawMessage `json:"data"`
	}
	for _, line := range lines {
		if err := json.Unmarshal([]byte(line), &last); err != nil {
			t.Fatalf("ndjson line %q: %v", line, err)
		}
	}
	if last.Event != "sweep" {
		t.Errorf("ndjson stream: last event %q, want sweep", last.Event)
	}
}

// TestRouteSurface: every route in the api table is mounted and
// responds; unknown resources 404 with the uniform error body.
func TestRouteSurface(t *testing.T) {
	srv, ts := newTestFarm(t, Config{Jobs: 1})
	srv.runCell = func(k bench.Cell) *CellResult { return &CellResult{} }
	sv := waitSweep(t, ts, postSweep(t, ts, `{"apps":["FFT"],"procs":[1],"backends":["genima"],"scale":"test"}`).ID)

	for path, want := range map[string]int{
		"/healthz":                        http.StatusOK,
		"/readyz":                         http.StatusOK,
		"/metrics":                        http.StatusOK,
		"/v1/sweeps":                      http.StatusOK,
		"/v1/sweeps/" + sv.ID:             http.StatusOK,
		"/v1/sweeps/" + sv.ID + "/stream": http.StatusOK,
		"/v1/sweeps/nope":                 http.StatusNotFound,
		"/v1/cells/nope":                  http.StatusNotFound,
		"/v1/cells/" + sv.Cells[0].Key:    http.StatusOK,
	} {
		code, body := getBody(t, ts, path)
		if code != want {
			t.Errorf("GET %s: status %d, want %d (%s)", path, code, want, body)
		}
	}

	// Bad specs are non-retriable 4xx answers, not panics: malformed or
	// invalid specs 400, and specs admission must not even expand 413 — a
	// body over maxSpecBytes, and a sweep of more cells than MaxQueue.
	manyProcs := "[1" + strings.Repeat(",1", 199999) + "]"
	for _, tc := range []struct {
		spec string
		want int
	}{
		{`{"apps":["NOPE"]}`, http.StatusBadRequest},
		{`{"scale":"huge"}`, http.StatusBadRequest},
		{`{"procs":[0]}`, http.StatusBadRequest},
		{`{"gran":1000}`, http.StatusBadRequest},
		{`{"gran":-4096}`, http.StatusBadRequest},
		{`{"gran":1024}`, http.StatusBadRequest},
		{`{"plan":"bogus:zzz"}`, http.StatusBadRequest},
		{`{"protocol":"treadmarks"}`, http.StatusBadRequest},
		{`{"sched":"event"}`, http.StatusBadRequest},
		{`{"coalesce":true}`, http.StatusBadRequest},
		{`{"unknownField":1}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
		{`{"kind":"fig5"` + strings.Repeat(" ", maxSpecBytes) + `}`, http.StatusRequestEntityTooLarge},
		{`{"procs":` + manyProcs + `}`, http.StatusRequestEntityTooLarge},
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(tc.spec))
		if err != nil {
			t.Fatalf("POST bad spec: %v", err)
		}
		var body struct {
			Error     string `json:"error"`
			Retriable bool   `json:"retriable"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		label := tc.spec
		if len(label) > 40 {
			label = label[:40] + "..."
		}
		if resp.StatusCode != tc.want {
			t.Errorf("POST %q: status %d, want %d", label, resp.StatusCode, tc.want)
		}
		if derr != nil || body.Error == "" || body.Retriable || resp.Header.Get("Retry-After") != "" {
			t.Errorf("POST %q: want the uniform non-retriable error body, got %+v (decode err %v)", label, body, derr)
		}
	}
	if n := srv.metrics.cellsAdmitted.Load(); n != 1 {
		t.Errorf("bad specs admitted cells: cellsAdmitted %d, want 1 (the one good sweep)", n)
	}
}

// TestListOrderPastSixDigits: sweep ids grow a digit after s999999, and
// GET /v1/sweeps still lists them in submission order.
func TestListOrderPastSixDigits(t *testing.T) {
	srv, ts := newTestFarm(t, Config{Jobs: 1})
	srv.runCell = func(k bench.Cell) *CellResult { return &CellResult{} }
	srv.nextID = 999998
	var want []string
	for i := 0; i < 3; i++ {
		want = append(want, waitSweep(t, ts, postSweep(t, ts, `{"apps":["FFT"],"procs":[1],"backends":["genima"],"scale":"test"}`).ID).ID)
	}
	if want[0] != "s999999" || want[2] != "s1000001" {
		t.Fatalf("sweep ids %v, want s999999 to s1000001", want)
	}
	_, body := getBody(t, ts, "/v1/sweeps")
	var list struct {
		Sweeps []sweepSummary `json:"sweeps"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("decode list: %v (%s)", err, body)
	}
	var got []string
	for _, sw := range list.Sweeps {
		got = append(got, sw.ID)
	}
	if !slices.Equal(got, want) {
		t.Errorf("GET /v1/sweeps lists %v, want %v", got, want)
	}
}

// TestRoutesMatchHandler pins that Routes, which cmd/doccheck checks
// docs/SERVE.md against, lists exactly the patterns Handler mounts.
func TestRoutesMatchHandler(t *testing.T) {
	srv := New(Config{Jobs: 1})
	defer srv.Drain()
	mux := srv.Handler().(*http.ServeMux)
	routes := Routes()
	for _, route := range routes {
		method, path, _ := strings.Cut(route, " ")
		path = strings.NewReplacer("{id}", "x", "{key}", "x").Replace(path)
		if _, got := mux.Handler(httptest.NewRequest(method, path, nil)); got != route {
			t.Errorf("%s %s: mux serves pattern %q, want %q", method, path, got, route)
		}
	}
	if len(routes) != 8 {
		t.Errorf("Routes lists %d routes; update docs/SERVE.md and this pin together", len(routes))
	}
}
