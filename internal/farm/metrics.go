package farm

import (
	"strconv"

	"cables/internal/bench"
	"cables/internal/metrics"
)

// MetricFamilies returns the name of every metric family the farm
// registers, sorted.  cmd/doccheck requires each to appear backquoted in a
// docs/OBSERVABILITY.md table.  All families are host-side service
// telemetry (real time), never virtual-time simulation results.
func MetricFamilies() []string { return newMetrics().reg.Families() }

// Metrics is the farm's registry plus every instrument handle the server
// touches.  The children the admission and completion paths bump per sweep
// or cell are resolved once here, per the internal/metrics discipline
// (TestHostCostBudgets bounds that hot path); tests in this package read
// them directly.
//
// Admission accounting: every cell of every accepted sweep increments
// exactly one of cacheHits (served from the warm cache), cellsCoalesced
// (joined an identical cell already queued or running) or cacheMisses (a
// fresh simulation was enqueued), so cellsAdmitted == cacheHits +
// cellsCoalesced + cacheMisses at all times, and once the farm is idle
// cellsAdmitted == cellsDone + cellsFailed + cellsRejected
// (docs/OBSERVABILITY.md §4 states both over the family names).
type Metrics struct {
	reg *metrics.Registry

	sweeps         *metrics.Counter // sweeps accepted by POST /v1/sweeps
	sweepsRejected *metrics.Counter // sweeps refused (draining or queue full)
	cellsAdmitted  *metrics.Counter // cells admitted across all accepted sweeps
	cacheHits      *metrics.Counter // cells served from the warm result cache
	cacheMisses    *metrics.Counter // cells that enqueued a fresh simulation
	cellsCoalesced *metrics.Counter // cells that joined an in-flight identical cell
	cellsDone      *metrics.Counter // cells that reached status done
	cellsFailed    *metrics.Counter // cells whose simulation failed
	cellsRejected  *metrics.Counter // queued cells rejected retriable by a drain
	cacheEvicted   *metrics.Counter // cache entries evicted by the LRU bound
	queueDepth     *metrics.Gauge   // simulations queued behind the worker pool
	cellsRunning   *metrics.Gauge   // simulations executing right now

	// Labeled families the server resolves per call site.
	cellRun     *metrics.HistogramVec // app, backend, protocol, scale, outcome
	httpRequest *metrics.HistogramVec // route, code
	queueWait   *metrics.Histogram

	// Gauges refreshed by the pool observer or at scrape time.
	cacheEntries *metrics.Gauge
	poolWorkers  *metrics.Gauge
	poolUtil     *metrics.Gauge
	draining     *metrics.Gauge
}

// newMetrics builds the farm's registry and resolves the hot children.
func newMetrics() *Metrics {
	r := metrics.NewRegistry()
	m := &Metrics{reg: r}

	m.sweeps = r.Counter("cables_farm_sweeps_total",
		"Sweeps accepted by POST /v1/sweeps.")
	m.sweepsRejected = r.Counter("cables_farm_sweeps_rejected_total",
		"Sweeps refused (draining or queue full).")
	m.cellsAdmitted = r.Counter("cables_farm_cells_admitted_total",
		"Cells admitted across all accepted sweeps.")

	cacheRequests := r.CounterVec("cables_farm_cache_requests_total",
		"Admitted cells by cache outcome: hit (served warm), coalesced (joined an in-flight identical cell), miss (fresh simulation enqueued).",
		"outcome")
	m.cacheHits = cacheRequests.With("hit")
	m.cacheMisses = cacheRequests.With("miss")
	m.cellsCoalesced = cacheRequests.With("coalesced")

	cellsTerminal := r.CounterVec("cables_farm_cells_terminal_total",
		"Cells reaching a terminal status: done, failed, or rejected (drained before starting).",
		"outcome")
	m.cellsDone = cellsTerminal.With("done")
	m.cellsFailed = cellsTerminal.With("failed")
	m.cellsRejected = cellsTerminal.With("rejected")

	m.cacheEvicted = r.Counter("cables_farm_cache_evictions_total",
		"Result-cache entries evicted by the LRU bound.")
	m.queueDepth = r.Gauge("cables_farm_queue_depth",
		"Simulations queued behind the worker pool right now.")
	m.cellsRunning = r.Gauge("cables_farm_cells_running",
		"Simulations executing right now.")

	m.cacheEntries = r.Gauge("cables_farm_cache_entries",
		"Result-cache entries currently resident.")
	m.poolWorkers = r.Gauge("cables_farm_pool_workers",
		"Worker-pool width (the Jobs config).")
	m.poolUtil = r.Gauge("cables_farm_pool_utilization_percent",
		"Running simulations as a percentage of pool width.")
	m.draining = r.Gauge("cables_farm_draining",
		"1 once a drain has begun, else 0.")

	m.cellRun = r.HistogramVec("cables_farm_cell_run_seconds",
		"Host wall-clock seconds one fresh simulation cell took to execute.",
		nil, "app", "backend", "protocol", "scale", "outcome")
	m.queueWait = r.Histogram("cables_farm_cell_queue_wait_seconds",
		"Host seconds a fresh cell waited in the pool queue before a worker picked it up.",
		nil)
	m.httpRequest = r.HistogramVec("cables_farm_http_request_seconds",
		"HTTP request handling latency by route pattern and status code.",
		nil, "route", "code")

	return m
}

// observeCell records one fresh cell completion in the run-latency
// histogram.  Only runFlight calls it, so cache hits and coalesced
// subscribers never double-count.
func (m *Metrics) observeCell(c bench.Cell, outcome string, hostSeconds float64) {
	m.cellRun.With(c.App, c.Backend, c.Opts.Protocol, string(c.Opts.Scale), outcome).
		Observe(hostSeconds)
}

// observeRequest records one handled HTTP request.
func (m *Metrics) observeRequest(route string, code int, seconds float64) {
	m.httpRequest.With(route, strconv.Itoa(code)).Observe(seconds)
}
