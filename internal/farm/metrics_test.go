package farm

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cables/internal/bench"
	"cables/internal/metrics"
)

// scrape fetches and parses GET /metrics.
func scrape(t *testing.T, client *http.Client, url string) *metrics.Scrape {
	t.Helper()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	s, err := metrics.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("parse exposition: %v", err)
	}
	return s
}

// TestFamilyNamesMatchRegistry pins the doccheck-linted familyNames literal
// to the registry's actual contents, so the docs inventory, the literal,
// and the exposition cannot drift apart.
func TestFamilyNamesMatchRegistry(t *testing.T) {
	got := newMetrics().reg.Families()
	if len(got) != len(familyNames) {
		t.Fatalf("registry has %d families, familyNames lists %d:\nregistry: %v\nliteral:  %v",
			len(got), len(familyNames), got, familyNames)
	}
	for i := range got {
		if got[i] != familyNames[i] {
			t.Errorf("family %d: registry %q, literal %q", i, got[i], familyNames[i])
		}
	}
}

// TestMetricsEndpoint runs the miss-then-hit sweep pattern and checks the
// exposition: every family present with HELP and TYPE headers, counters
// reflecting the admissions, the run histogram carrying the cell's labels.
func TestMetricsEndpoint(t *testing.T) {
	srv, ts := newTestFarm(t, Config{Jobs: 2})
	srv.runCell = func(k bench.Cell) *CellResult {
		return &CellResult{Counters: map[string]int64{"pageFaults": 3}}
	}
	spec := `{"apps":["FFT"],"procs":[1,2],"backends":["genima"],"scale":"test"}`
	waitSweep(t, ts, postSweep(t, ts, spec).ID)
	waitSweep(t, ts, postSweep(t, ts, spec).ID) // identical: pure cache hits

	scrape(t, ts.Client(), ts.URL) // its own sample lands after the handler returns
	s := scrape(t, ts.Client(), ts.URL)
	for _, fam := range familyNames {
		if _, ok := s.Type[fam]; !ok {
			t.Errorf("family %s missing a TYPE header", fam)
		}
		if _, ok := s.Help[fam]; !ok {
			t.Errorf("family %s missing a HELP line", fam)
		}
	}

	for name, labels := range map[string]map[string]string{
		"cables_farm_sweeps_total":         nil,
		"cables_farm_cells_admitted_total": nil,
		"cables_farm_cache_requests_total": {"outcome": "hit"},
		"cables_farm_cells_terminal_total": {"outcome": "done"},
	} {
		got, ok := s.Value(name, labels)
		want := map[string]float64{
			"cables_farm_sweeps_total":         2,
			"cables_farm_cells_admitted_total": 4,
			"cables_farm_cache_requests_total": 2,
			"cables_farm_cells_terminal_total": 4,
		}[name]
		if !ok || got != want {
			t.Errorf("%s%v = %v ok=%t, want %v", name, labels, got, ok, want)
		}
	}

	// Two fresh cells ran; the run histogram carries the cell identity and
	// only fresh executions (no double-count from the cache-hit resubmit).
	if got, ok := s.Value("cables_farm_cell_run_seconds_count",
		map[string]string{"app": "FFT", "backend": "genima", "outcome": "done"}); !ok || got != 2 {
		t.Errorf("cell_run count = %v ok=%t, want 2", got, ok)
	}
	// Queue-wait histogram saw both pool jobs.
	if got, ok := s.Value("cables_farm_cell_queue_wait_seconds_count", nil); !ok || got != 2 {
		t.Errorf("queue_wait count = %v ok=%t, want 2", got, ok)
	}
	// The middleware recorded this test's own requests under route labels.
	byRoute := s.SumBy("cables_farm_http_request_seconds_count", "route")
	if byRoute["POST /v1/sweeps"] != 2 {
		t.Errorf("http_request count for POST /v1/sweeps = %v, want 2", byRoute["POST /v1/sweeps"])
	}
	if byRoute["GET /metrics"] == 0 {
		t.Error("http_request count for GET /metrics is zero")
	}
	if v, ok := s.Value("cables_farm_pool_workers", nil); !ok || v != 2 {
		t.Errorf("pool_workers = %v ok=%t, want 2", v, ok)
	}
}

// TestConcurrentScrapes scrapes /metrics from two goroutines while a sweep
// is actively completing cells; with -race this is the farm's scrape-vs-
// hot-path gate.
func TestConcurrentScrapes(t *testing.T) {
	srv, ts := newTestFarm(t, Config{Jobs: 2})
	srv.runCell = func(k bench.Cell) *CellResult {
		time.Sleep(2 * time.Millisecond)
		return &CellResult{Counters: map[string]int64{"diffs": 1}}
	}
	sv := postSweep(t, ts,
		`{"apps":["FFT"],"procs":[1,2,3,4,5,6],"backends":["genima"],"scale":"test"}`)

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				scrape(t, ts.Client(), ts.URL)
			}
		}()
	}
	wg.Wait()
	waitSweep(t, ts, sv.ID)

	s := scrape(t, ts.Client(), ts.URL)
	if got, ok := s.Value("cables_farm_cells_terminal_total",
		map[string]string{"outcome": "done"}); !ok || got != 6 {
		t.Errorf("terminal done = %v ok=%t, want 6", got, ok)
	}
}

// TestReadyzFlipsOnDrain pins the readiness satellite: /readyz serves 200
// before a drain and 503 (with Retry-After) after one begins, while
// /healthz keeps answering 200 throughout.
func TestReadyzFlipsOnDrain(t *testing.T) {
	srv, ts := newTestFarm(t, Config{Jobs: 1})
	srv.runCell = func(k bench.Cell) *CellResult { return &CellResult{} }

	code, _ := getBody(t, ts, "/readyz")
	if code != http.StatusOK {
		t.Fatalf("/readyz before drain: %d, want 200", code)
	}

	srv.Drain()

	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain: %d, want 503 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("/readyz 503 missing Retry-After")
	}
	var errBody struct {
		Retriable bool `json:"retriable"`
	}
	if err := json.Unmarshal(body, &errBody); err != nil || !errBody.Retriable {
		t.Errorf("/readyz 503 body not retriable: %s", body)
	}

	// Liveness is not readiness: the process is still healthy.
	code, healthBody := getBody(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Errorf("/healthz during drain: %d, want 200", code)
	}
	if !bytes.Contains(healthBody, []byte(`"draining":true`)) {
		t.Errorf("/healthz body does not report draining: %s", healthBody)
	}
	// And the drain gauge flips in the exposition.
	s := scrape(t, ts.Client(), ts.URL)
	if v, ok := s.Value("cables_farm_draining", nil); !ok || v != 1 {
		t.Errorf("cables_farm_draining = %v ok=%t, want 1", v, ok)
	}
}

// TestRequestIDAndSweepThreading pins the structured-log plumbing visible
// on the wire: responses carry X-Request-Id, and every streamed progress
// event self-identifies its sweep.
func TestRequestIDAndSweepThreading(t *testing.T) {
	srv, ts := newTestFarm(t, Config{Jobs: 1})
	srv.runCell = func(k bench.Cell) *CellResult { return &CellResult{} }

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	first := resp.Header.Get("X-Request-Id")
	if first == "" {
		t.Fatal("response missing X-Request-Id")
	}
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if second := resp.Header.Get("X-Request-Id"); second == first {
		t.Errorf("request ids did not advance: %q then %q", first, second)
	}

	sv := waitSweep(t, ts, postSweep(t, ts,
		`{"apps":["FFT"],"procs":[1],"backends":["genima"],"scale":"test"}`).ID)
	sr, err := ts.Client().Get(ts.URL + "/v1/sweeps/" + sv.ID + "/stream?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	raw, _ := io.ReadAll(sr.Body)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev struct {
			Event string   `json:"event"`
			Data  cellView `json:"data"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad ndjson line %q: %v", line, err)
		}
		if ev.Event == "cell" && ev.Data.Sweep != sv.ID {
			t.Errorf("cell event sweep = %q, want %q (%s)", ev.Data.Sweep, sv.ID, line)
		}
	}
}
