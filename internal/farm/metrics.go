package farm

import (
	"strconv"

	"cables/internal/metrics"
	"cables/internal/stats"
)

// familyNames lists every metric family the farm registers, as string
// literals.  Two gates pin this inventory: cmd/doccheck requires each name
// to appear backquoted in a docs/OBSERVABILITY.md table, and
// TestFamilyNamesMatchRegistry requires it to equal the registry's actual
// contents — so the exposition, the literal, and the docs cannot drift
// apart.  All families are host-side service telemetry (real time), never
// virtual-time simulation results.
var familyNames = []string{
	"cables_farm_cache_entries",
	"cables_farm_cache_evictions_total",
	"cables_farm_cache_requests_total",
	"cables_farm_cell_queue_wait_seconds",
	"cables_farm_cell_run_seconds",
	"cables_farm_cells_admitted_total",
	"cables_farm_cells_running",
	"cables_farm_cells_terminal_total",
	"cables_farm_draining",
	"cables_farm_http_request_seconds",
	"cables_farm_pool_utilization_percent",
	"cables_farm_pool_workers",
	"cables_farm_queue_depth",
	"cables_farm_sweeps_rejected_total",
	"cables_farm_sweeps_total",
	"cables_sim_events_total",
}

// Metrics is the farm's registry plus every instrument handle the server
// touches.  Hot-path children (the cache-outcome and terminal-status
// counters the admission path bumps per cell) are resolved once here and
// cached in the legacy Stats view, per the internal/metrics discipline.
type Metrics struct {
	reg *metrics.Registry

	// Labeled families the server resolves per call site.
	cacheRequests *metrics.CounterVec   // outcome: hit | miss | coalesced
	cellsTerminal *metrics.CounterVec   // outcome: done | failed | rejected
	simEvents     *metrics.CounterVec   // event, app, backend, protocol
	cellRun       *metrics.HistogramVec // app, backend, protocol, scale, outcome
	httpRequest   *metrics.HistogramVec // route, code
	queueWait     *metrics.Histogram

	// Gauges refreshed by the pool observer or at scrape time.
	cacheEntries *metrics.Gauge
	poolWorkers  *metrics.Gauge
	poolUtil     *metrics.Gauge
	draining     *metrics.Gauge

	// stats holds the pre-resolved children behind the legacy /v1/stats
	// counter names; Server.Stats() hands it to tests and the CLI.
	stats Stats
}

// newMetrics builds the farm's registry and resolves the hot children.
func newMetrics() *Metrics {
	r := metrics.NewRegistry()
	m := &Metrics{reg: r}

	m.stats.Sweeps = r.Counter("cables_farm_sweeps_total",
		"Sweeps accepted by POST /v1/sweeps.")
	m.stats.SweepsRejected = r.Counter("cables_farm_sweeps_rejected_total",
		"Sweeps refused (draining or queue full).")
	m.stats.CellsQueued = r.Counter("cables_farm_cells_admitted_total",
		"Cells admitted across all accepted sweeps.")

	m.cacheRequests = r.CounterVec("cables_farm_cache_requests_total",
		"Admitted cells by cache outcome: hit (served warm), coalesced (joined an in-flight identical cell), miss (fresh simulation enqueued).",
		"outcome")
	m.stats.CacheHits = m.cacheRequests.With("hit")
	m.stats.CacheMisses = m.cacheRequests.With("miss")
	m.stats.CellsCoalesced = m.cacheRequests.With("coalesced")

	m.cellsTerminal = r.CounterVec("cables_farm_cells_terminal_total",
		"Cells reaching a terminal status: done, failed, or rejected (drained before starting).",
		"outcome")
	m.stats.CellsDone = m.cellsTerminal.With("done")
	m.stats.CellsFailed = m.cellsTerminal.With("failed")
	m.stats.CellsRejected = m.cellsTerminal.With("rejected")

	m.stats.CacheEvicted = r.Counter("cables_farm_cache_evictions_total",
		"Result-cache entries evicted by the LRU bound.")
	m.stats.QueueDepth = r.Gauge("cables_farm_queue_depth",
		"Simulations queued behind the worker pool right now.")
	m.stats.CellsRunning = r.Gauge("cables_farm_cells_running",
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

	m.simEvents = r.CounterVec("cables_sim_events_total",
		"Virtual-time simulation events folded from fresh cell completions, by event kind and cell identity (cache hits do not re-count).",
		"event", "app", "backend", "protocol")

	return m
}

// observeCell records one fresh cell completion: the run-latency histogram
// sample and the fold of the cell's virtual-time counter snapshot into the
// fleet aggregates.  Only runFlight calls it, so cache hits and coalesced
// subscribers never double-count.
func (m *Metrics) observeCell(k CellKey, outcome string, hostSeconds float64, ctr stats.Snapshot) {
	m.cellRun.With(k.App, k.Backend, k.Protocol, k.Scale, outcome).
		Observe(hostSeconds)
	for event, n := range ctr {
		if n != 0 {
			m.simEvents.With(event, k.App, k.Backend, k.Protocol).Add(n)
		}
	}
}

// observeRequest records one handled HTTP request.
func (m *Metrics) observeRequest(route string, code int, seconds float64) {
	m.httpRequest.With(route, strconv.Itoa(code)).Observe(seconds)
}
