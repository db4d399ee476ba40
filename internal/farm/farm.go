// Package farm turns the batch experiment harness into a long-running
// simulation service: `cablesim serve` (docs/SERVE.md is the API
// reference).
//
// Clients POST experiment sweep specs — figure/table cells, wire-plane
// flags, coherence protocol, fault plan, seed, scale — as JSON; the farm
// expands each spec into simulation cells, shards the cells across a
// bounded worker pool (the same bench.Pool machinery behind `-jobs`), and
// streams per-cell progress over SSE or newline-delimited JSON.
//
// Results are content-addressed: a spec expands into bench.Cell values, the
// harness's one cell spec, and each cell's cache key is the SHA-256 of its
// canonical rendering of every input (app, procs, backend, scale,
// granularity, wire-plane mode, fault plan, seed, protocol — see
// bench.Cell.Canonical).  The farm runs exactly the cell it hashes, so
// identical cells across sweeps and across concurrent clients are
// simulated exactly once.  The first request simulates and fills the
// cache; concurrent duplicates coalesce onto the in-flight simulation;
// later duplicates are served from cache (TestCacheServesIdenticalResults
// checks the cached bytes equal the cold run's and the results equal
// fresh runs of the same cells).
//
// Admission bounds what it allocates: a spec body is capped at 1 MiB and a
// sweep of more cells than Config.MaxQueue is refused (413) before its
// cells are expanded.
//
// On SIGTERM/SIGINT the farm drains gracefully: intake returns a retriable
// 503, in-flight cells run to completion, queued cells are rejected with a
// retriable status, and every worker goroutine exits (Server.Drain,
// Server.DrainOnSignal).  Service-level counters and gauges — cells
// admitted/running, cache hits/misses/evictions, queue depth — are
// exported once, as Prometheus families at GET /metrics (metrics.go),
// documented in docs/OBSERVABILITY.md (cmd/doccheck and
// TestFamilyNamesMatchRegistry keep the inventory in lock-step with the
// registry).
package farm
