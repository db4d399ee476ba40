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
// Results are content-addressed: each cell's cache key is the SHA-256 of a
// canonical rendering of every code-relevant input (app, procs, backend,
// scale, protocol, granularity, wire-plane modes, fault plan, seed — see
// CellKey.Canonical), so identical cells across sweeps and across
// concurrent clients are simulated exactly once.  The first request
// simulates and fills the cache; concurrent duplicates coalesce onto the
// in-flight simulation; later duplicates are served from cache
// bit-identically — the workloads' deterministic checksums are the proof
// that a cached result equals a fresh run.
//
// On SIGTERM/SIGINT the farm drains gracefully: intake returns a retriable
// 503, in-flight cells run to completion, queued cells are rejected with a
// retriable status, and every worker goroutine exits (Server.Drain,
// Server.DrainOnSignal).  Service-level counters and gauges — cells
// queued/running, cache hits/misses/evictions, queue depth — are exported
// at /v1/stats and documented in docs/SERVE.md and docs/OBSERVABILITY.md
// (cmd/doccheck keeps both inventories in lock-step with the code).
package farm
