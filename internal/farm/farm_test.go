package farm

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cables/internal/bench"
	"cables/internal/coherence"
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

// admissionInvariant checks cellsQueued == cacheHits+cellsCoalesced+cacheMisses.
func admissionInvariant(t *testing.T, s *Server) {
	t.Helper()
	snap := s.StatsSnapshot()
	if snap["cellsQueued"] != snap["cacheHits"]+snap["cellsCoalesced"]+snap["cacheMisses"] {
		t.Errorf("admission invariant broken: %v", snap)
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
	misses := srv.Stats().CacheMisses.Load()
	if misses != 4 {
		t.Fatalf("cold sweep: %d misses, want 4", misses)
	}

	// Fresh out-of-band runs prove the cached payloads carry the
	// deterministic results, not stale or swapped entries.
	for _, c := range cold.Cells {
		if c.Result == nil || c.Result.Err != "" {
			t.Fatalf("cell %s/%d: missing or failed result", c.App, c.Procs)
		}
		res, _, err := bench.RunAppCell(c.App, c.Backend, c.Procs, bench.ScaleTest, nil, bench.CellOptions{})
		if err != nil {
			t.Fatalf("fresh %s/%s/%d: %v", c.App, c.Backend, c.Procs, err)
		}
		if res.Checksum != c.Result.Result.Checksum {
			t.Errorf("%s/%s p=%d: cached checksum %v != fresh %v",
				c.App, c.Backend, c.Procs, c.Result.Result.Checksum, res.Checksum)
		}
	}

	warm := waitSweep(t, ts, postSweep(t, ts, spec).ID)
	if warm.Status != "done" {
		t.Fatalf("warm sweep: status %s", warm.Status)
	}
	if srv.Stats().CacheMisses.Load() != misses {
		t.Errorf("warm sweep re-simulated cells: misses %d -> %d",
			misses, srv.Stats().CacheMisses.Load())
	}
	if hits := srv.Stats().CacheHits.Load(); hits != 4 {
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

// TestCacheNearMiss: flipping any single code-relevant flag must miss the
// cache, while code-irrelevant differences (kind, seed without a plan)
// must hit it.
func TestCacheNearMiss(t *testing.T) {
	srv, ts := newTestFarm(t, Config{Jobs: 2})
	base := `"apps":["FFT"],"procs":[1],"backends":["genima"],"scale":"test"`
	run := func(spec string) {
		t.Helper()
		sv := waitSweep(t, ts, postSweep(t, ts, spec).ID)
		if sv.Status != "done" {
			t.Fatalf("sweep %s: status %s", spec, sv.Status)
		}
	}

	run(`{` + base + `}`)
	misses := srv.Stats().CacheMisses.Load()
	if misses != 1 {
		t.Fatalf("base sweep: %d misses, want 1", misses)
	}

	for i, variant := range []string{
		`{` + base + `,"contendedSync":true}`,
		`{` + base + `,"coalesce":true}`,
		`{` + base + `,"gran":4096}`,
		`{` + base + `,"plan":"send:p=0.01","seed":1}`,
		`{` + base + `,"plan":"send:p=0.01","seed":2}`,
		`{` + base + `,"scale":"paper"}`,
	} {
		run(variant)
		want := misses + int64(i) + 1
		if got := srv.Stats().CacheMisses.Load(); got != want {
			t.Errorf("variant %d (%s): misses %d, want %d (must not hit the cache)", i, variant, got, want)
		}
	}
	total := srv.Stats().CacheMisses.Load()

	// Code-irrelevant differences: a different seed with no fault plan is
	// canonicalized away, and kind only changes rendering.
	for _, same := range []string{
		`{` + base + `,"seed":99}`,
		`{` + base + `,"kind":"counters"}`,
		`{` + base + `,"kind":"fig6"}`,
	} {
		run(same)
		if got := srv.Stats().CacheMisses.Load(); got != total {
			t.Errorf("spec %s: missed the cache (misses %d -> %d), want hit", same, total, got)
		}
	}
	admissionInvariant(t, srv)
}

// TestConcurrentSweepsCoalesce: identical cells submitted by concurrent
// clients while the first is still queued/running must coalesce onto one
// simulation — never run twice.
func TestConcurrentSweepsCoalesce(t *testing.T) {
	srv, _ := newTestFarm(t, Config{Jobs: 1})
	release := make(chan struct{})
	srv.runCell = func(k CellKey) *CellResult {
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
	snap := srv.StatsSnapshot()
	if snap["cacheMisses"] != 2 {
		t.Errorf("misses = %d, want 2 (one per unique cell)", snap["cacheMisses"])
	}
	if snap["cellsCoalesced"]+snap["cacheHits"] != 4 {
		t.Errorf("coalesced+hits = %d, want 4 (duplicate cells must not re-simulate): %v",
			snap["cellsCoalesced"]+snap["cacheHits"], snap)
	}
	admissionInvariant(t, srv)
}

// TestStreamFormats: the progress stream replays every cell transition and
// terminates with the sweep event, in both SSE and NDJSON framing.
func TestStreamFormats(t *testing.T) {
	srv, ts := newTestFarm(t, Config{Jobs: 1})
	srv.runCell = func(k CellKey) *CellResult { return &CellResult{} }
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

// TestRouteSurface: every route in the routes literal is mounted and
// responds; unknown resources 404 with the uniform error body.
func TestRouteSurface(t *testing.T) {
	srv, ts := newTestFarm(t, Config{Jobs: 1})
	srv.runCell = func(k CellKey) *CellResult { return &CellResult{} }
	sv := waitSweep(t, ts, postSweep(t, ts, `{"apps":["FFT"],"procs":[1],"backends":["genima"],"scale":"test"}`).ID)

	for path, want := range map[string]int{
		"/healthz":                        http.StatusOK,
		"/readyz":                         http.StatusOK,
		"/metrics":                        http.StatusOK,
		"/v1/stats":                       http.StatusOK,
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

	// Bad specs are 400s, not panics.
	for _, bad := range []string{
		`{"apps":["NOPE"]}`, `{"scale":"huge"}`, `{"procs":[0]}`,
		`{"plan":"bogus:zzz"}`, `{"sched":"event"}`, `{"unknownField":1}`, `not json`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatalf("POST bad spec: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestSpecCanonicalization pins the cache-key semantics documented in
// docs/SERVE.md: plan spellings canonicalize, seeds without plans zero out,
// and every code-relevant field lands in the canonical string.
func TestSpecCanonicalization(t *testing.T) {
	s := Spec{Apps: []string{"FFT"}, Procs: []int{4}, Backends: []string{"genima"},
		Plan: "send:p=0.0500", Seed: 7, Scale: "test"}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	cells := s.Cells()
	if len(cells) != 1 {
		t.Fatalf("cells: %d, want 1", len(cells))
	}
	k := cells[0]
	canon := k.Canonical()
	for _, want := range []string{"app=FFT", "procs=4", "backend=genima", "scale=test",
		"protocol=" + coherence.DefaultName(), "seed=7", "plan=send:p=0.05"} {
		if !strings.Contains(canon, want) {
			t.Errorf("canonical %q missing %q", canon, want)
		}
	}

	// Same experiment, different plan spelling: same address.
	s2 := s
	s2.Plan = "send:p=0.05"
	if err := s2.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s2.Cells()[0].Hash() != k.Hash() {
		t.Error("equivalent plan spellings produced different cache keys")
	}

	// No plan: the seed is code-irrelevant and must canonicalize to 0.
	s3 := Spec{Apps: []string{"FFT"}, Procs: []int{4}, Backends: []string{"genima"},
		Scale: "test", Seed: 123}
	if err := s3.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s3.Seed != 0 {
		t.Errorf("fault-free seed not canonicalized: %d", s3.Seed)
	}
}

// TestRouteLiteralMatchesHandler pins that the doccheck-linted routes
// literal and the mounted handler set cannot drift apart (Handler panics on
// a mismatch; this exercises it).
func TestRouteLiteralMatchesHandler(t *testing.T) {
	srv := New(Config{Jobs: 1})
	defer srv.Drain()
	if srv.Handler() == nil {
		t.Fatal("Handler returned nil")
	}
	if len(routes) != 9 {
		t.Errorf("routes literal has %d entries; update docs/SERVE.md and this pin together", len(routes))
	}
}
