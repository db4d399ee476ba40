package main

import (
	"math"
	"strings"
	"testing"
)

// Two canned scrapes of a farm, in the exposition format the repository's
// own writer produces (and its parser, which the reader reuses, accepts).
const scrapeBefore = `# HELP cables_farm_cache_requests_total Admitted cells by cache outcome.
# TYPE cables_farm_cache_requests_total counter
cables_farm_cache_requests_total{outcome="coalesced"} 0
cables_farm_cache_requests_total{outcome="hit"} 0
cables_farm_cache_requests_total{outcome="miss"} 40
# HELP cables_farm_cache_evictions_total Evictions.
# TYPE cables_farm_cache_evictions_total counter
cables_farm_cache_evictions_total 0
# HELP cables_farm_http_request_seconds HTTP latency.
# TYPE cables_farm_http_request_seconds histogram
cables_farm_http_request_seconds_bucket{route="POST /v1/sweeps",code="202",le="+Inf"} 1
cables_farm_http_request_seconds_sum{route="POST /v1/sweeps",code="202"} 0.004
cables_farm_http_request_seconds_count{route="POST /v1/sweeps",code="202"} 1
cables_farm_http_request_seconds_bucket{route="GET /metrics",code="200",le="+Inf"} 1
cables_farm_http_request_seconds_sum{route="GET /metrics",code="200"} 9
cables_farm_http_request_seconds_count{route="GET /metrics",code="200"} 1
# HELP cables_farm_pool_workers Pool width.
# TYPE cables_farm_pool_workers gauge
cables_farm_pool_workers 2
`

const scrapeAfter = `# HELP cables_farm_cache_requests_total Admitted cells by cache outcome.
# TYPE cables_farm_cache_requests_total counter
cables_farm_cache_requests_total{outcome="coalesced"} 5
cables_farm_cache_requests_total{outcome="hit"} 75
cables_farm_cache_requests_total{outcome="miss"} 60
# HELP cables_farm_cache_evictions_total Evictions.
# TYPE cables_farm_cache_evictions_total counter
cables_farm_cache_evictions_total 3
# HELP cables_farm_http_request_seconds HTTP latency.
# TYPE cables_farm_http_request_seconds histogram
cables_farm_http_request_seconds_bucket{route="POST /v1/sweeps",code="202",le="+Inf"} 11
cables_farm_http_request_seconds_sum{route="POST /v1/sweeps",code="202"} 0.024
cables_farm_http_request_seconds_count{route="POST /v1/sweeps",code="202"} 11
cables_farm_http_request_seconds_bucket{route="GET /metrics",code="200",le="+Inf"} 2
cables_farm_http_request_seconds_sum{route="GET /metrics",code="200"} 18
cables_farm_http_request_seconds_count{route="GET /metrics",code="200"} 2
# HELP cables_farm_pool_workers Pool width.
# TYPE cables_farm_pool_workers gauge
cables_farm_pool_workers 2
`

func TestMetricsDeltaReader(t *testing.T) {
	before, err := parseExposition(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}

	o := cacheDelta(before, after)
	if o.hits != 75 || o.misses != 20 || o.coalesced != 5 || o.evictions != 3 {
		t.Errorf("cache delta = %+v, want 75 hits, 20 misses, 5 coalesced, 3 evictions", o)
	}
	if got := o.hitRatio(); got != 0.75 {
		t.Errorf("hit ratio = %v, want 0.75", got)
	}
	// Against a fresh server (no first scrape) the deltas are the totals.
	if o := cacheDelta(nil, after); o.misses != 60 {
		t.Errorf("misses since boot = %v, want 60", o.misses)
	}

	// The label match selects one route's series; the histogram mean is over
	// the observations between the scrapes only: (0.024-0.004)/(11-1) s.
	got := histMeanMS(before, after, "cables_farm_http_request_seconds", "route=POST /v1/sweeps")
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("mean submit latency = %v ms, want 2", got)
	}
	if got := histMeanMS(before, after, "cables_farm_http_request_seconds", "route=GET /healthz"); got != 0 {
		t.Errorf("mean over no observations = %v, want 0", got)
	}
	if got := after.sum("cables_farm_pool_workers"); got != 2 {
		t.Errorf("pool workers = %v, want 2", got)
	}
	if _, err := parseExposition(strings.NewReader("not an exposition line\n")); err == nil {
		t.Error("a malformed exposition parsed without error")
	}
}

func TestCutFields(t *testing.T) {
	line := []byte(`{"sweep":"s000002","key":"abc123","app":"FFT","procs":4,"backend":"genima","status":"done","cached":true,"result":{"key":"abc123","hostNs":12}}`)
	key, res, ok := cellResultBytes(line)
	if !ok || string(key) != "abc123" || string(res) != `{"key":"abc123","hostNs":12}` {
		t.Errorf("cellResultBytes = %q, %q, %v", key, res, ok)
	}
	if _, _, ok := cellResultBytes([]byte(`{"sweep":"s1","key":"k","status":"queued","cached":false}`)); ok {
		t.Error("a cell event without a result yielded one")
	}
}
