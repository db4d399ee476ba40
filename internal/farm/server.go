package farm

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cables/internal/bench"
	"cables/internal/fault"
	"cables/internal/sim"
	"cables/internal/wire"
)

// Config sizes one farm server.
type Config struct {
	// Jobs is the worker-pool width — how many simulation cells execute
	// concurrently on the host (default bench.DefaultJobs()).
	Jobs int
	// CacheEntries bounds the content-addressed result cache (default
	// 4096 entries, LRU eviction).
	CacheEntries int
	// MaxQueue bounds admitted-but-unstarted simulations; a sweep that
	// would push the queue past it is refused with a retriable 503
	// (default 65536).
	MaxQueue int
	// Logger receives one structured record per handled HTTP request
	// (request id, method, route, status, duration) plus sweep-lifecycle
	// records.  nil discards — tests and embedded pools stay silent.
	Logger *slog.Logger
}

// routes lists every registered HTTP route as string literals.  Handler
// registers exactly this set, and cmd/doccheck requires each entry to
// appear backquoted in a docs/SERVE.md table — an undocumented endpoint
// fails CI.
var routes = []string{
	"GET /healthz",
	"GET /readyz",
	"GET /metrics",
	"GET /v1/stats",
	"POST /v1/sweeps",
	"GET /v1/sweeps",
	"GET /v1/sweeps/{id}",
	"GET /v1/sweeps/{id}/stream",
	"GET /v1/cells/{key}",
}

// Cell states reported in sweep responses and progress streams.
const (
	CellQueued   = "queued"   // admitted, simulation not started
	CellRunning  = "running"  // simulation executing (or coalesced onto one)
	CellDone     = "done"     // completed; result available
	CellFailed   = "failed"   // simulation errored; result carries the message
	CellRejected = "rejected" // drained before starting; retriable elsewhere/later
)

// Server is one farm instance: a worker pool, a content-addressed result
// cache, the sweep registry, and the drain state machine.  Create with New,
// mount Handler on an http.Server, call Drain (or DrainOnSignal) to stop.
type Server struct {
	cfg     Config
	pool    *bench.Pool
	cache   *Cache
	metrics *Metrics
	stats   *Stats // legacy handles into s.metrics' registry
	logger  *slog.Logger
	reqID   atomic.Int64

	mu       sync.Mutex
	sweeps   map[string]*sweep
	inflight map[string]*flight // cell hash -> pending/executing simulation
	nextID   int
	draining bool
	drained  chan struct{}

	// runCell executes one simulation cell; tests substitute a stub to
	// control timing.  The default is runCellSim.
	runCell func(CellKey) *CellResult
}

// sweep is the server-side state of one accepted sweep request.
type sweep struct {
	id        string
	spec      Spec
	refs      []*cellRef
	remaining int           // cells not yet terminal
	events    []streamEvent // progress log, replayed by /stream
	notify    chan struct{} // closed+rotated on every event append
}

// cellRef is one cell slot of one sweep.  Several refs (across sweeps) may
// subscribe to the same flight.
type cellRef struct {
	sw        *sweep
	key       CellKey
	hash      string
	status    string
	cached    bool
	retriable bool
	res       *CellResult
}

// flight is one in-flight simulation: the single execution every identical
// admitted cell coalesces onto.
type flight struct {
	key     CellKey
	hash    string
	started bool
	subs    []*cellRef
}

// streamEvent is one pre-rendered progress event.
type streamEvent struct {
	kind string // "cell" or "sweep"
	data []byte // JSON payload
}

// New creates a farm server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Jobs <= 0 {
		cfg.Jobs = bench.DefaultJobs()
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 4096
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 65536
	}
	s := &Server{
		cfg:      cfg,
		pool:     bench.NewPool(cfg.Jobs),
		metrics:  newMetrics(),
		logger:   cfg.Logger,
		sweeps:   make(map[string]*sweep),
		inflight: make(map[string]*flight),
		drained:  make(chan struct{}),
		runCell:  runCellSim,
	}
	if s.logger == nil {
		s.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.stats = &s.metrics.stats
	s.cache = NewCache(cfg.CacheEntries, func() { s.stats.CacheEvicted.Add(1) })
	workers := s.pool.Workers()
	s.metrics.poolWorkers.Set(int64(workers))
	s.pool.SetObserver(func(queued, running int) {
		s.stats.QueueDepth.Set(int64(queued))
		s.stats.CellsRunning.Set(int64(running))
		s.metrics.poolUtil.Set(int64(running * 100 / workers))
	})
	s.pool.SetJobObserver(func(wait, run time.Duration) {
		s.metrics.queueWait.Observe(wait.Seconds())
	})
	return s
}

// Stats exposes the service counters (tests and the CLI read them).  The
// handles alias the same registry instruments `GET /metrics` renders.
func (s *Server) Stats() *Stats { return s.stats }

// StatsSnapshot is the /v1/stats payload: every Stats key plus the cache's
// current entry count.
func (s *Server) StatsSnapshot() map[string]int64 {
	snap := s.stats.Snapshot()
	snap["cacheEntries"] = int64(s.cache.Len())
	return snap
}

// Draining reports whether a drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops intake, completes in-flight cells, rejects queued cells with
// a retriable status, and shuts the worker pool down.  It blocks until the
// drain is complete and is safe to call more than once.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.drained
		return
	}
	s.draining = true
	s.mu.Unlock()
	s.metrics.draining.Set(1)
	s.logger.Info("drain started")

	// Wait for in-flight simulations; their completion paths take s.mu, so
	// the lock must be free here.  Queued-but-unstarted jobs come back
	// unrun and their flights are exactly the ones never marked started.
	s.pool.Drain()

	s.mu.Lock()
	for hash, f := range s.inflight {
		if f.started {
			continue // completed between pool drain and here
		}
		for _, ref := range f.subs {
			ref.retriable = true
			s.completeRef(ref, CellRejected, nil)
			s.stats.CellsRejected.Add(1)
		}
		delete(s.inflight, hash)
	}
	close(s.drained)
	s.mu.Unlock()
	s.logger.Info("drain complete")
}

// DrainOnSignal registers the given signals (default SIGINT+SIGTERM via the
// caller) and drains the server when the first one arrives.  The returned
// channel closes when the drain completes — `cablesim serve` waits on it
// before shutting the HTTP listener down.
func (s *Server) DrainOnSignal(sigs ...os.Signal) <-chan struct{} {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, sigs...)
	done := make(chan struct{})
	go func() {
		<-ch
		signal.Stop(ch)
		s.Drain()
		close(done)
	}()
	return done
}

// Handler returns the farm's HTTP API, registering exactly the routes
// listed in the routes literal.  Every route is wrapped in the telemetry
// middleware: one cables_farm_http_request_seconds sample and one
// structured log record per request.
func (s *Server) Handler() http.Handler {
	handlers := map[string]http.HandlerFunc{
		"GET /healthz":               s.handleHealth,
		"GET /readyz":                s.handleReady,
		"GET /metrics":               s.handleMetrics,
		"GET /v1/stats":              s.handleStats,
		"POST /v1/sweeps":            s.handleSubmit,
		"GET /v1/sweeps":             s.handleList,
		"GET /v1/sweeps/{id}":        s.handleSweep,
		"GET /v1/sweeps/{id}/stream": s.handleStream,
		"GET /v1/cells/{key}":        s.handleCell,
	}
	mux := http.NewServeMux()
	for _, r := range routes {
		h, ok := handlers[r]
		if !ok {
			panic("farm: route " + r + " has no handler")
		}
		mux.HandleFunc(r, s.withTelemetry(r, h))
	}
	return mux
}

// statusWriter records the response status for the telemetry middleware.
// It forwards Flush so the stream endpoint keeps its SSE semantics through
// the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withTelemetry wraps one route's handler: assign a request id (echoed as
// X-Request-Id), time the request, record the latency histogram sample
// under the route pattern and status code, and emit one structured log
// record.  The request id is per-process monotonic — enough to correlate a
// log line with a client-observed response.
func (s *Server) withTelemetry(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("r%08d", s.reqID.Add(1))
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r)
		dur := time.Since(start)
		s.metrics.observeRequest(route, sw.code, dur.Seconds())
		s.logger.Info("request",
			"id", id, "method", r.Method, "path", r.URL.Path,
			"route", route, "status", sw.code, "durUS", dur.Microseconds())
	}
}

// runCellSim executes one cell for real: it rebuilds the injector from the
// canonical plan+seed, applies the granularity override and wire-plane
// modes, and runs the workload through bench.RunAppCell.
func runCellSim(k CellKey) *CellResult {
	var costs *sim.Costs
	if k.Gran > 0 {
		costs = sim.DefaultCosts()
		costs.MapGranularity = k.Gran
	}
	var inj *fault.Injector
	if k.Plan != "" {
		plan, err := fault.ParsePlan(k.Plan)
		if err != nil {
			// Unreachable after Spec.Normalize; kept as a failed cell so a
			// corrupted key can never crash a worker.
			return &CellResult{Err: "farm: bad fault plan in cell key: " + err.Error()}
		}
		inj = fault.New(plan, k.Seed)
	}
	opt := bench.CellOptions{
		Protocol: k.Protocol,
		Wire:     wire.Options{ContendedSync: k.ContendedSync, Coalesce: k.Coalesce},
		Fault:    inj,
	}
	res, ctr, err := bench.RunAppCell(k.App, k.Backend, k.Procs, bench.Scale(k.Scale), costs, opt)
	cr := &CellResult{Result: res}
	if ctr != nil {
		cr.Counters = ctr.Snapshot()
	}
	if inj != nil {
		cr.Injected = inj.Injected()
	}
	cr.Degraded = cr.Injected > 0 && err == nil
	if err != nil {
		cr.Err = err.Error()
	}
	return cr
}

// ---- admission ----

// handleSubmit admits one sweep: expand the spec into cells, serve what the
// cache already holds, coalesce onto in-flight identical cells, and enqueue
// the rest.  The response is the full sweep view (202) so clients see the
// cache classification immediately.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad spec JSON: "+err.Error(), false)
		return
	}
	if err := spec.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), false)
		return
	}
	cells := spec.Cells()

	s.mu.Lock()
	if s.draining {
		s.stats.SweepsRejected.Add(1)
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining", true)
		return
	}
	if s.stats.QueueDepth.Load()+int64(len(cells)) > int64(s.cfg.MaxQueue) {
		s.stats.SweepsRejected.Add(1)
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "queue is full", true)
		return
	}

	s.nextID++
	sw := &sweep{
		id:     fmt.Sprintf("s%06d", s.nextID),
		spec:   spec,
		notify: make(chan struct{}),
	}
	s.sweeps[sw.id] = sw
	sw.refs = make([]*cellRef, len(cells))
	sw.remaining = len(cells)
	for i, k := range cells {
		ref := &cellRef{sw: sw, key: k, hash: k.Hash(), status: CellQueued}
		sw.refs[i] = ref
		if res, ok := s.cache.Get(ref.hash); ok {
			ref.cached = true
			s.stats.CacheHits.Add(1)
			s.completeRef(ref, terminalStatus(res), res)
			continue
		}
		if f, ok := s.inflight[ref.hash]; ok {
			f.subs = append(f.subs, ref)
			if f.started {
				ref.status = CellRunning
			}
			s.stats.CellsCoalesced.Add(1)
			s.appendCellEvent(ref)
			continue
		}
		f := &flight{key: k, hash: ref.hash, subs: []*cellRef{ref}}
		s.inflight[ref.hash] = f
		s.stats.CacheMisses.Add(1)
		s.appendCellEvent(ref)
		if err := s.pool.Submit(func() { s.runFlight(f) }); err != nil {
			// A concurrent drain won the race; reject like any queued cell.
			ref.retriable = true
			s.completeRef(ref, CellRejected, nil)
			s.stats.CellsRejected.Add(1)
			delete(s.inflight, ref.hash)
		}
	}
	s.stats.Sweeps.Add(1)
	s.stats.CellsQueued.Add(int64(len(cells)))
	body := s.sweepViewLocked(sw)
	s.mu.Unlock()

	s.logger.Info("sweep accepted",
		"sweep", sw.id, "cells", len(cells),
		"cached", body.Counts["cached"], "kind", spec.Kind)
	writeJSON(w, http.StatusAccepted, body)
}

// runFlight is the pool job for one fresh simulation.
func (s *Server) runFlight(f *flight) {
	s.mu.Lock()
	f.started = true
	for _, ref := range f.subs {
		ref.status = CellRunning
		s.appendCellEvent(ref)
	}
	s.mu.Unlock()

	start := time.Now()
	var res *CellResult
	if err := bench.Isolate(func() { res = s.runCell(f.key) }); err != nil {
		res = &CellResult{Err: "farm: cell " + err.Error()}
	}
	res.Key = f.hash
	res.Canonical = f.key.Canonical()
	res.HostNS = time.Since(start).Nanoseconds()
	// Fresh completions (and only fresh completions — cache hits and
	// coalesced subscribers share this one execution) feed the run-latency
	// histogram and fold the cell's virtual-time counters into the fleet
	// aggregates.
	s.metrics.observeCell(f.key, terminalStatus(res),
		float64(res.HostNS)/1e9, res.Counters)

	s.mu.Lock()
	s.cache.Put(f.hash, res)
	delete(s.inflight, f.hash)
	status := terminalStatus(res)
	for _, ref := range f.subs {
		s.completeRef(ref, status, res)
	}
	s.mu.Unlock()
}

// terminalStatus maps a result to its cell status.
func terminalStatus(res *CellResult) string {
	if res.Err != "" {
		return CellFailed
	}
	return CellDone
}

// completeRef moves one cell to a terminal status, bumps the terminal
// counters, logs the progress event, and — when it is the sweep's last open
// cell — logs the sweep-terminal event.  Callers hold s.mu.
func (s *Server) completeRef(ref *cellRef, status string, res *CellResult) {
	ref.status = status
	ref.res = res
	switch status {
	case CellDone:
		s.stats.CellsDone.Add(1)
	case CellFailed:
		s.stats.CellsFailed.Add(1)
	}
	s.appendCellEvent(ref)
	ref.sw.remaining--
	if ref.sw.remaining == 0 {
		data, _ := json.Marshal(s.sweepSummaryLocked(ref.sw))
		ref.sw.events = append(ref.sw.events, streamEvent{kind: "sweep", data: data})
	}
}

// appendCellEvent logs one progress event for ref and wakes the sweep's
// stream watchers.  Callers hold s.mu.
func (s *Server) appendCellEvent(ref *cellRef) {
	data, _ := json.Marshal(s.cellViewLocked(ref))
	ref.sw.events = append(ref.sw.events, streamEvent{kind: "cell", data: data})
	close(ref.sw.notify)
	ref.sw.notify = make(chan struct{})
}

// ---- JSON views ----

// cellView is the wire form of one sweep cell.  Sweep carries the owning
// sweep's id so every SSE/NDJSON progress event is self-identifying — a
// client multiplexing several streams can attribute each event without
// tracking which connection it arrived on.
type cellView struct {
	Sweep     string      `json:"sweep"`
	Key       string      `json:"key"`
	App       string      `json:"app"`
	Procs     int         `json:"procs"`
	Backend   string      `json:"backend"`
	Status    string      `json:"status"`
	Cached    bool        `json:"cached"`
	Retriable bool        `json:"retriable,omitempty"`
	Result    *CellResult `json:"result,omitempty"`
}

// sweepView is the wire form of one sweep.
type sweepView struct {
	ID     string         `json:"id"`
	Spec   Spec           `json:"spec"`
	Status string         `json:"status"`
	Counts map[string]int `json:"counts"`
	Cells  []cellView     `json:"cells"`
}

// sweepSummary is the wire form used by the list endpoint and the terminal
// stream event.
type sweepSummary struct {
	ID     string         `json:"id"`
	Status string         `json:"status"`
	Counts map[string]int `json:"counts"`
}

// cellViewLocked renders one cell; kind=counters sweeps include the counter
// snapshot, other kinds serve the result without it.  Callers hold s.mu.
func (s *Server) cellViewLocked(ref *cellRef) cellView {
	v := cellView{
		Sweep: ref.sw.id,
		Key:   ref.hash, App: ref.key.App, Procs: ref.key.Procs, Backend: ref.key.Backend,
		Status: ref.status, Cached: ref.cached, Retriable: ref.retriable,
	}
	if ref.res != nil {
		res := *ref.res
		if ref.sw.spec.Kind != "counters" {
			res.Counters = nil
		}
		v.Result = &res
	}
	return v
}

// sweepStatusLocked derives the sweep status.  Callers hold s.mu.
func (s *Server) sweepStatusLocked(sw *sweep) (status string, counts map[string]int) {
	counts = map[string]int{}
	cached := 0
	for _, ref := range sw.refs {
		counts[ref.status]++
		if ref.cached {
			cached++
		}
	}
	counts["cached"] = cached
	switch {
	case sw.remaining > 0:
		status = "running"
	case counts[CellRejected] > 0:
		status = "drained"
	default:
		status = "done"
	}
	return status, counts
}

func (s *Server) sweepSummaryLocked(sw *sweep) sweepSummary {
	status, counts := s.sweepStatusLocked(sw)
	return sweepSummary{ID: sw.id, Status: status, Counts: counts}
}

func (s *Server) sweepViewLocked(sw *sweep) sweepView {
	status, counts := s.sweepStatusLocked(sw)
	v := sweepView{ID: sw.id, Spec: sw.spec, Status: status, Counts: counts,
		Cells: make([]cellView, len(sw.refs))}
	for i, ref := range sw.refs {
		v.Cells[i] = s.cellViewLocked(ref)
	}
	return v
}

// ---- read endpoints ----

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "draining": s.Draining()})
}

// handleReady is the readiness probe: 200 while the farm accepts sweeps,
// 503 (with Retry-After, like every retriable refusal) once a drain has
// begun — so a load balancer stops routing to a draining instance while
// /healthz keeps reporting the process alive.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "server is draining", true)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// handleMetrics serves the Prometheus text exposition.  Point-in-time
// gauges that have no event to hang off (cache residency, drain state) are
// refreshed here, at scrape time; everything else is maintained by the hot
// paths.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.cacheEntries.Set(int64(s.cache.Len()))
	if s.Draining() {
		s.metrics.draining.Set(1)
	} else {
		s.metrics.draining.Set(0)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.metrics.reg.WritePrometheus(w)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"counters": s.StatsSnapshot(),
		"draining": draining,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.sweeps))
	for id := range s.sweeps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]sweepSummary, len(ids))
	for i, id := range ids {
		out[i] = s.sweepSummaryLocked(s.sweeps[id])
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": out})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sw, ok := s.sweeps[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown sweep", false)
		return
	}
	body := s.sweepViewLocked(sw)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	res, ok := s.cache.Get(r.PathValue("key"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown or evicted cell", false)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleStream replays a sweep's progress log and follows it live: SSE
// frames by default (`event: cell|sweep`, `data: <json>`), newline-
// delimited JSON objects with `?format=ndjson`.  The stream ends after the
// terminal sweep event (or when the client goes away).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sw, ok := s.sweeps[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep", false)
		return
	}
	ndjson := r.URL.Query().Get("format") == "ndjson"
	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	idx := 0
	for {
		s.mu.Lock()
		events := append([]streamEvent(nil), sw.events[idx:]...)
		idx = len(sw.events)
		done := sw.remaining == 0
		notify := sw.notify
		s.mu.Unlock()

		for _, ev := range events {
			if ndjson {
				fmt.Fprintf(w, `{"event":%q,"data":%s}`+"\n", ev.kind, ev.data)
			} else {
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.kind, ev.data)
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-notify:
		}
	}
}

// ---- helpers ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError renders the uniform error body; retriable errors additionally
// carry `"retriable": true` and a Retry-After header so sweep drivers can
// back off and resubmit against a fresh instance.
func writeError(w http.ResponseWriter, code int, msg string, retriable bool) {
	if retriable {
		w.Header().Set("Retry-After", "5")
	}
	writeJSON(w, code, map[string]any{"error": msg, "retriable": retriable})
}
