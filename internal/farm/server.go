package farm

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cables/internal/bench"
	"cables/internal/stats"
)

// Config sizes one farm server.
type Config struct {
	// Jobs is the worker-pool width — how many simulation cells execute
	// concurrently on the host (default bench.DefaultJobs()).
	Jobs int
	// CacheEntries bounds the content-addressed result cache (default
	// 4096 entries, LRU eviction).
	CacheEntries int
	// MaxQueue bounds admitted-but-unstarted simulations; a sweep whose
	// new simulations would push the queue past it is refused with a
	// retriable 503 (cache hits and duplicates of in-flight cells add
	// none), and a sweep of more than MaxQueue cells, which could never
	// fit, with a non-retriable 413 (default 65536).
	MaxQueue int
	// Logger receives one structured record per handled HTTP request
	// (request id, method, route, status, duration) plus sweep-lifecycle
	// records.  nil discards — tests and embedded pools stay silent.
	Logger *slog.Logger
}

// api is the farm's HTTP surface: every route pattern with the method that
// serves it, in registration order.  Handler registers exactly this table
// and Routes lists it, and cmd/doccheck requires each pattern to appear
// backquoted in a docs/SERVE.md table, so an undocumented endpoint fails
// CI.
var api = []struct {
	pattern string
	handle  func(*Server, http.ResponseWriter, *http.Request)
}{
	{"GET /healthz", (*Server).handleHealth},
	{"GET /readyz", (*Server).handleReady},
	{"GET /metrics", (*Server).handleMetrics},
	{"POST /v1/sweeps", (*Server).handleSubmit},
	{"GET /v1/sweeps", (*Server).handleList},
	{"GET /v1/sweeps/{id}", (*Server).handleSweep},
	{"GET /v1/sweeps/{id}/stream", (*Server).handleStream},
	{"GET /v1/cells/{key}", (*Server).handleCell},
}

// Routes returns the pattern of every route Handler registers, in
// registration order.
func Routes() []string {
	out := make([]string, len(api))
	for i, r := range api {
		out[i] = r.pattern
	}
	return out
}

// Cell states reported in sweep responses and progress streams.
const (
	CellQueued   = "queued"   // admitted, simulation not started
	CellRunning  = "running"  // simulation executing (or coalesced onto one)
	CellDone     = "done"     // completed; result available
	CellFailed   = "failed"   // simulation errored; result carries the message
	CellRejected = "rejected" // drained before starting; retriable elsewhere/later
)

// cellStatus is a cell's state inside the server; statusNames gives each
// its wire name.
type cellStatus uint8

const (
	statQueued cellStatus = iota
	statRunning
	statDone
	statFailed
	statRejected
	numStatuses
)

var statusNames = [numStatuses]string{CellQueued, CellRunning, CellDone, CellFailed, CellRejected}

func (st cellStatus) String() string { return statusNames[st] }

// hasResult reports whether a cell at st carries its result: it completed,
// as opposed to waiting or being rejected by a drain.
func (st cellStatus) hasResult() bool { return st == statDone || st == statFailed }

// Server is one farm instance: a worker pool, a content-addressed result
// cache, the sweep registry, and the drain state machine.  Create with New,
// mount Handler on an http.Server, call Drain (or DrainOnSignal) to stop.
type Server struct {
	cfg     Config
	pool    *bench.Pool
	cache   *Cache
	metrics *Metrics
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
	runCell func(bench.Cell) *CellResult
}

// sweep is the server-side state of one accepted sweep request.
type sweep struct {
	id        string
	spec      Spec
	refs      []cellRef
	remaining int     // cells not yet terminal
	events    []event // progress log, rendered by /stream as it replays
	// notify is made by a stream waiting for the next event, and closed
	// and cleared when one is appended.
	notify chan struct{}
}

// cellRef is one cell slot of one sweep.  Several refs (across sweeps) may
// subscribe to the same flight.  A rejected cell is always retriable: only
// a drain rejects.
type cellRef struct {
	sw     *sweep
	key    bench.Cell
	hash   string
	res    *CellResult // set when the cell completes, before its status
	idx    int32       // position in sw.refs
	status cellStatus
	cached bool
}

// flight is one in-flight simulation: the single execution every identical
// admitted cell coalesces onto.
type flight struct {
	key     bench.Cell
	hash    string
	started bool
	subs    []*cellRef
}

// event is one progress record: the sweep's cell entered status.  The
// stream renders it when it writes it; the terminal sweep event follows
// the last record and is rendered from the sweep's final state.
type event struct {
	cell   int32
	status cellStatus
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
	s.cache = NewCache(cfg.CacheEntries, func() { s.metrics.cacheEvicted.Add(1) })
	workers := s.pool.Workers()
	s.metrics.poolWorkers.Set(int64(workers))
	s.pool.SetObserver(func(queued, running int) {
		s.metrics.queueDepth.Set(int64(queued))
		s.metrics.cellsRunning.Set(int64(running))
		s.metrics.poolUtil.Set(int64(running * 100 / workers))
	})
	s.pool.SetJobObserver(func(wait, run time.Duration) {
		s.metrics.queueWait.Observe(wait.Seconds())
	})
	return s
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
	// Stop dispatch in the same critical section that turns intake away,
	// so no queued cell can start once the drain is visible.
	s.pool.Stop()
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
			s.completeRef(ref, statRejected, nil)
			s.metrics.cellsRejected.Add(1)
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

// Handler returns the farm's HTTP API, registering exactly the routes of
// the api table.  Every route is wrapped in the telemetry middleware: one
// cables_farm_http_request_seconds sample and one structured log record
// per request.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range api {
		mux.HandleFunc(r.pattern, s.withTelemetry(r.pattern, func(w http.ResponseWriter, req *http.Request) {
			r.handle(s, w, req)
		}))
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

// runCellSim executes one cell for real through bench.RunCell and maps
// its run onto the served result.
func runCellSim(c bench.Cell) *CellResult {
	r := bench.RunCell(c, bench.Attach{})
	cr := &CellResult{Result: r.Res}
	if r.Ctr != nil {
		cr.Counters = r.Ctr.Snapshot()
		cr.Injected = r.Ctr.Load(stats.EvFaultsInjected)
	}
	cr.Degraded = cr.Injected > 0 && r.Err == nil
	if r.Err != nil {
		cr.Err = r.Err.Error()
		var pe *bench.PanicError
		cr.panicked = errors.As(r.Err, &pe)
	}
	return cr
}

// ---- admission ----

// maxSpecBytes bounds a POST /v1/sweeps body; a larger one is refused with
// a non-retriable 413 before it is decoded in full.
const maxSpecBytes = 1 << 20

// handleSubmit admits one sweep: expand the spec into cells, serve what the
// cache already holds, coalesce onto in-flight identical cells, and enqueue
// the rest.  The response is the full sweep view (202) so clients see the
// cache classification immediately.  Admission bounds its own allocation:
// the body is capped at maxSpecBytes, and a sweep of more than MaxQueue
// cells is refused before it is expanded.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("spec body exceeds %d bytes", maxSpecBytes), false)
			return
		}
		writeError(w, http.StatusBadRequest, "bad spec JSON: "+err.Error(), false)
		return
	}
	if err := spec.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), false)
		return
	}
	if n := spec.numCells(); n > s.cfg.MaxQueue {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("sweep has %d cells, more than the queue bound %d", n, s.cfg.MaxQueue), false)
		return
	}
	cells := spec.Cells()
	hashes := make([]string, len(cells))
	for i, k := range cells {
		hashes[i] = k.Hash()
	}

	s.mu.Lock()
	if s.draining {
		s.metrics.sweepsRejected.Add(1)
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining", true)
		return
	}
	// Only the cells that start a simulation count against the queue bound:
	// a hit or a duplicate of an in-flight cell queues nothing.  The cache
	// and the in-flight map change only under s.mu, so the count is exact.
	hits := make([]*CellResult, len(cells))
	var fresh map[string]bool
	for i, h := range hashes {
		if res, ok := s.cache.Get(h); ok {
			hits[i] = res
		} else if _, ok := s.inflight[h]; !ok && !fresh[h] {
			if fresh == nil {
				fresh = make(map[string]bool)
			}
			fresh[h] = true
		}
	}
	if s.metrics.queueDepth.Load()+int64(len(fresh)) > int64(s.cfg.MaxQueue) {
		s.metrics.sweepsRejected.Add(1)
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "queue is full", true)
		return
	}

	s.nextID++
	sw := &sweep{
		id:        fmt.Sprintf("s%06d", s.nextID),
		spec:      spec,
		refs:      make([]cellRef, len(cells)),
		remaining: len(cells),
		events:    make([]event, 0, len(cells)),
	}
	s.sweeps[sw.id] = sw
	for i, k := range cells {
		ref := &sw.refs[i]
		*ref = cellRef{sw: sw, key: k, hash: hashes[i], idx: int32(i)}
		if res := hits[i]; res != nil {
			if res.Key == ref.hash {
				ref.hash = res.Key // keep the cache's copy; drop this one
			}
			ref.cached = true
			s.metrics.cacheHits.Add(1)
			s.completeRef(ref, terminalStatus(res), res)
			continue
		}
		if f, ok := s.inflight[ref.hash]; ok {
			f.subs = append(f.subs, ref)
			if f.started {
				ref.status = statRunning
			}
			s.metrics.cellsCoalesced.Add(1)
			s.appendEvent(ref)
			continue
		}
		f := &flight{key: k, hash: ref.hash, subs: []*cellRef{ref}}
		s.inflight[ref.hash] = f
		s.metrics.cacheMisses.Add(1)
		s.appendEvent(ref)
		if err := s.pool.Submit(func() { s.runFlight(f) }); err != nil {
			// A concurrent drain won the race; reject like any queued cell.
			s.completeRef(ref, statRejected, nil)
			s.metrics.cellsRejected.Add(1)
			delete(s.inflight, ref.hash)
		}
	}
	s.metrics.sweeps.Add(1)
	s.metrics.cellsAdmitted.Add(int64(len(cells)))
	snap := snapshot(sw, true)
	s.mu.Unlock()

	s.logger.Info("sweep accepted",
		"sweep", sw.id, "cells", len(cells),
		"cached", snap.cached, "kind", spec.Kind)
	writeBody(w, http.StatusAccepted, appendSweep(nil, sw, &snap))
}

// runFlight is the pool job for one fresh simulation.
func (s *Server) runFlight(f *flight) {
	s.mu.Lock()
	f.started = true
	for _, ref := range f.subs {
		ref.status = statRunning
		s.appendEvent(ref)
	}
	s.mu.Unlock()

	start := time.Now()
	var res *CellResult
	if err := bench.Isolate(func() { res = s.runCell(f.key) }); err != nil {
		res = &CellResult{Err: "farm: cell " + err.Error(), panicked: true}
	}
	res.Key = f.hash
	res.Canonical = f.key.Canonical()
	res.HostNS = time.Since(start).Nanoseconds()
	// Encode once, outside the lock: every view of this cell, for every
	// sweep that holds it, serves these bytes.
	res.encode()
	status := terminalStatus(res)
	// Fresh completions (and only fresh completions — cache hits and
	// coalesced subscribers share this one execution) feed the run-latency
	// histogram.
	s.metrics.observeCell(f.key, status.String(), float64(res.HostNS)/1e9)

	s.mu.Lock()
	if !res.panicked {
		s.cache.Put(f.hash, res)
	}
	delete(s.inflight, f.hash)
	for _, ref := range f.subs {
		s.completeRef(ref, status, res)
	}
	s.mu.Unlock()
}

// terminalStatus maps a result to its cell status.
func terminalStatus(res *CellResult) cellStatus {
	if res.Err != "" {
		return statFailed
	}
	return statDone
}

// completeRef moves one cell to a terminal status, bumps the terminal
// counters and logs the progress event.  Callers hold s.mu.
func (s *Server) completeRef(ref *cellRef, status cellStatus, res *CellResult) {
	ref.res = res
	ref.status = status
	switch status {
	case statDone:
		s.metrics.cellsDone.Add(1)
	case statFailed:
		s.metrics.cellsFailed.Add(1)
	}
	ref.sw.remaining--
	s.appendEvent(ref)
}

// appendEvent logs ref's current status and wakes the sweep's waiting
// stream, if any.  Callers hold s.mu.
func (s *Server) appendEvent(ref *cellRef) {
	sw := ref.sw
	sw.events = append(sw.events, event{cell: ref.idx, status: ref.status})
	if sw.notify != nil {
		close(sw.notify)
		sw.notify = nil
	}
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

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.sweeps))
	for id := range s.sweeps {
		ids = append(ids, id)
	}
	// Ids are s%06d, so past s999999 they grow a digit: shorter ids sort
	// first, which keeps the list in submission order.
	slices.SortFunc(ids, func(a, b string) int {
		return cmp.Or(cmp.Compare(len(a), len(b)), strings.Compare(a, b))
	})
	snaps := make([]sweepSnap, len(ids))
	for i, id := range ids {
		snaps[i] = snapshot(s.sweeps[id], false)
	}
	s.mu.Unlock()
	b := []byte(`{"sweeps":[`)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendSummary(b, id, &snaps[i])
	}
	writeBody(w, http.StatusOK, append(b, "]}\n"...))
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sw, ok := s.sweeps[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown sweep", false)
		return
	}
	snap := snapshot(sw, true)
	s.mu.Unlock()
	writeBody(w, http.StatusOK, appendSweep(nil, sw, &snap))
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	res, ok := s.cache.Get(r.PathValue("key"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown or evicted cell", false)
		return
	}
	// Clip so the newline lands in a copy, never in the shared bytes.
	writeBody(w, http.StatusOK, append(slices.Clip(res.encoded(true)), '\n'))
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

	var buf []byte
	idx := 0
	for {
		s.mu.Lock()
		// Records below len(sw.events) are never written again, so this
		// slice is safe to read once the lock is released.
		events := sw.events[idx:]
		idx = len(sw.events)
		done := sw.remaining == 0
		var snap sweepSnap
		if done {
			snap = snapshot(sw, false)
		} else if sw.notify == nil {
			sw.notify = make(chan struct{})
		}
		notify := sw.notify
		s.mu.Unlock()

		buf = buf[:0]
		for _, ev := range events {
			buf = openFrame(buf, "cell", ndjson)
			buf = appendCell(buf, &sw.refs[ev.cell], ev.status)
			buf = closeFrame(buf, ndjson)
		}
		if done {
			buf = openFrame(buf, "sweep", ndjson)
			buf = appendSummary(buf, sw.id, &snap)
			buf = closeFrame(buf, ndjson)
		}
		if _, err := w.Write(buf); err != nil {
			return // the client went away
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

// writeBody sends an already rendered JSON body.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body) // a write fails only when the client has gone
}

// writeJSON sends v as a json.Encoder would.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, _ := json.Marshal(v) // the callers' maps of strings and bools always encode
	writeBody(w, code, append(b, '\n'))
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
