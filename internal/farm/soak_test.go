package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"cables/internal/bench"
)

// TestServeSoak pushes well over 1000 queued cells through a live farm,
// asserts the queue actually backed up and drained, bounds resident memory,
// proves the cache-hit ratio on a repeated sweep, and finishes with a clean
// SIGTERM drain and no leaked goroutines.  Real simulations run at test
// scale (a few ms per cell), so the whole soak takes a few seconds.
func TestServeSoak(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, ts := newTestFarm(t, Config{Jobs: 4})
	// A gate holds every worker until the whole backlog is admitted, so the
	// queue reaches its depth whatever a cell costs to simulate.
	gate := make(chan struct{})
	srv.runCell = func(k bench.Cell) *CellResult {
		<-gate
		return runCellSim(k)
	}

	// Phase 1: 1000+ distinct cells (unique fault seeds on a real plan keep
	// every cache key fresh) across 252 sweeps of 4 cells each, submitted
	// from many goroutines while the gate is shut.
	const sweeps, perSweep = 252, 4
	ids := make([]string, 0, sweeps)
	var wg sync.WaitGroup
	idCh := make(chan string, sweeps)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < sweeps; i += 16 {
				spec := fmt.Sprintf(
					`{"apps":["FFT"],"procs":[1,4],"backends":["genima","cables"],"scale":"test","plan":"send:p=0.0001","seed":%d}`, i+1)
				idCh <- postSweep(t, ts, spec).ID
			}
		}(g)
	}
	wg.Wait()
	close(idCh)
	for id := range idCh {
		ids = append(ids, id)
	}
	depth := srv.metrics.queueDepth.Load()
	close(gate)
	for _, id := range ids {
		if sv := waitSweep(t, ts, id); sv.Status != "done" {
			t.Fatalf("sweep %s: status %s", id, sv.Status)
		}
	}
	m := srv.metrics
	admitted := m.cellsAdmitted.Load()
	if admitted < sweeps*perSweep {
		t.Fatalf("admitted %d cells, want >= %d", admitted, sweeps*perSweep)
	}
	missesBefore := m.cacheMisses.Load()
	if missesBefore != sweeps*perSweep {
		t.Errorf("distinct-cell phase: %d misses, want %d", missesBefore, sweeps*perSweep)
	}
	if depth < 1000 {
		t.Errorf("queue depth reached %d; the soak never sustained >= 1000 queued cells", depth)
	}
	if d := srv.metrics.queueDepth.Load(); d != 0 {
		t.Errorf("queue depth %d after every sweep finished, want 0", d)
	}
	t.Logf("distinct phase: %d cells, queue depth %d behind the gate", admitted, depth)

	// Phase 2: repeat one 4-cell sweep as often; after the first, every
	// cell must be a hit or a coalesce — assert a >= 99%% hit ratio.
	repeated := `{"apps":["LU"],"procs":[1,4],"backends":["genima","cables"],"scale":"test"}`
	ids = ids[:0]
	for i := 0; i < sweeps; i++ {
		ids = append(ids, postSweep(t, ts, repeated).ID)
	}
	for _, id := range ids {
		if sv := waitSweep(t, ts, id); sv.Status != "done" {
			t.Fatalf("repeated sweep %s: status %s", id, sv.Status)
		}
	}
	newMisses := m.cacheMisses.Load() - missesBefore
	if newMisses != perSweep {
		t.Errorf("repeated phase: %d misses, want exactly %d (one per unique cell)", newMisses, perSweep)
	}
	served := int64(sweeps * perSweep)
	ratio := float64(served-newMisses) / float64(served)
	if ratio < 0.99 {
		t.Errorf("cache-hit ratio %.4f, want >= 0.99", ratio)
	}
	t.Logf("repeated phase: hit ratio %.4f (%d served, %d simulated)", ratio, served, newMisses)
	admissionInvariant(t, srv)
	terminalInvariant(t, srv)

	// Bounded memory: with the LRU holding at most CacheEntries test-scale
	// results, the heap must stay far under any runaway threshold.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 512<<20 {
		t.Errorf("heap ballooned to %d MiB after soak", ms.HeapAlloc>>20)
	}
	t.Logf("heap after soak: %d MiB, cache entries %d", ms.HeapAlloc>>20, srv.cache.Len())

	// Clean SIGTERM drain, no stragglers.
	drained := srv.DrainOnSignal(syscall.SIGTERM)
	p, _ := os.FindProcess(os.Getpid())
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("SIGTERM drain did not complete")
	}
	ts.Close()
	waitGoroutines(t, base)
}

// TestHitSweepRetention bounds what the farm keeps per served sweep, as the
// benchmark probe's farm.retained_kb_per_sweep measures it: after a
// prefill, 300 all-hit sweeps of 40 real test-scale cells, each POSTed and
// its NDJSON stream read, may grow the collected heap by at most 16 KB
// apiece.  A sweep keeps status records, not rendered bytes.
func TestHitSweepRetention(t *testing.T) {
	srv := New(Config{Jobs: 2})
	defer srv.Drain()
	h := srv.Handler()
	spec := []byte(`{"apps":["FFT","LU","OCEAN","RADIX"],"scale":"test"}`)
	sweep := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweeps", bytes.NewReader(spec)))
		var sv struct {
			ID    string     `json:"id"`
			Cells []struct{} `json:"cells"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &sv); w.Code != http.StatusAccepted || err != nil || len(sv.Cells) != 40 {
			t.Fatalf("POST /v1/sweeps: %d, %d cells, %v", w.Code, len(sv.Cells), err)
		}
		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+sv.ID+"/stream?format=ndjson", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET stream: %d", w.Code)
		}
	}
	sweep() // the prefill: the stream returns once every cell is done

	const sweeps = 300
	var ms0, ms1 runtime.MemStats
	// Two collections empty the sync.Pool victim caches the prefill's
	// simulations filled.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i := 0; i < sweeps; i++ {
		sweep()
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	kb := (float64(ms1.HeapAlloc) - float64(ms0.HeapAlloc)) / sweeps / 1024
	t.Logf("retained %.1f KB per 40-cell hit sweep", kb)
	if kb > 16 {
		t.Errorf("retained %.1f KB per hit sweep, want <= 16", kb)
	}
	if misses := srv.metrics.cacheMisses.Load(); misses != 40 {
		t.Errorf("cacheMisses = %d, want 40 (every repeat a hit)", misses)
	}
}
