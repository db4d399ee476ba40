package farm

import (
	"runtime"
	"testing"
)

// TestMetricsSmoke boots a real farm, runs a small fault-plan sweep twice
// (miss then hit), scrapes GET /metrics, and asserts the key families are
// present with the cache-hit counter nonzero — then drains and checks no
// goroutines leaked.  Real simulations run at test scale, so the smoke
// takes a fraction of a second.
func TestMetricsSmoke(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, ts := newTestFarm(t, Config{Jobs: 2})

	// Before any ready traffic the probe must answer 200.
	if code, _ := getBody(t, ts, "/readyz"); code != 200 {
		t.Fatalf("/readyz before sweeps: %d, want 200", code)
	}

	// The same fault-plan sweep twice: first all misses, second all hits.
	spec := `{"apps":["FFT"],"procs":[1,4],"backends":["genima","cables"],"scale":"test","plan":"send:p=0.0001","seed":7}`
	first := waitSweep(t, ts, postSweep(t, ts, spec).ID)
	if first.Status != "done" {
		t.Fatalf("first sweep: status %s", first.Status)
	}
	second := waitSweep(t, ts, postSweep(t, ts, spec).ID)
	if second.Status != "done" {
		t.Fatalf("second sweep: status %s", second.Status)
	}
	if second.Counts["cached"] != len(second.Cells) {
		t.Errorf("second sweep: %d/%d cells cached; the repeat was not a pure hit",
			second.Counts["cached"], len(second.Cells))
	}

	s := scrape(t, ts.Client(), ts.URL)
	for _, fam := range []string{
		"cables_farm_sweeps_total",
		"cables_farm_cache_requests_total",
		"cables_farm_cells_terminal_total",
		"cables_farm_cell_run_seconds",
		"cables_farm_cell_queue_wait_seconds",
		"cables_farm_http_request_seconds",
	} {
		if _, ok := s.Type[fam]; !ok {
			t.Errorf("scrape missing key family %s", fam)
		}
	}
	if hits, ok := s.Value("cables_farm_cache_requests_total",
		map[string]string{"outcome": "hit"}); !ok || hits == 0 {
		t.Errorf("cache-hit counter = %v ok=%t, want nonzero after the repeat sweep", hits, ok)
	}
	if n := s.SumBy("cables_farm_cell_run_seconds_count", "outcome")["done"]; n != float64(len(first.Cells)) {
		t.Errorf("run histogram count = %v, want %d (fresh cells only)",
			n, len(first.Cells))
	}
	if p95, ok := s.Quantile("cables_farm_cell_run_seconds", 0.95, nil); !ok || p95 <= 0 {
		t.Errorf("p95 cell latency = %v ok=%t, want > 0", p95, ok)
	}

	// Drain: /readyz flips to 503, and no goroutines outlive the farm.
	srv.Drain()
	if resp, err := ts.Client().Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != 503 {
			t.Errorf("/readyz after drain: %d, want 503", resp.StatusCode)
		}
	}
	ts.Close()
	waitGoroutines(t, base)
}
