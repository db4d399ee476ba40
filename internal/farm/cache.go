package farm

import (
	"container/list"
	"encoding/json"
	"sync"

	"cables/internal/apps/appapi"
	"cables/internal/stats"
)

// CellResult is the cached, JSON-served outcome of one simulation cell.
// It is immutable once stored: a cache hit serves exactly these bytes
// (TestCacheServesIdenticalResults compares warm and cold result bytes).
type CellResult struct {
	// Key is the cell's content address (bench.Cell.Hash) and Canonical the
	// string it hashes — returned so clients can verify what they got.
	Key       string `json:"key"`
	Canonical string `json:"canonical"`
	// Result is the workload outcome (times, checksum, placement census).
	Result appapi.Result `json:"result"`
	// Counters is the run's full event-counter snapshot (rendered only for
	// kind=counters sweeps, but always cached).  It is dropped once the
	// result is encoded: from then on the encoded bytes are its only copy.
	Counters stats.Snapshot `json:"counters,omitempty"`
	// Injected counts fault firings; Degraded mirrors the batch CLI's
	// DEGRADED rendering (faults fired, run still completed correctly).
	Injected int64 `json:"faultsInjected"`
	Degraded bool  `json:"degraded"`
	// Err is the failure message for cells that did not complete.
	Err string `json:"error,omitempty"`
	// HostNS is the host wall-clock the fresh simulation took; cache hits
	// return the original value (how much time the cache saved).
	HostNS int64 `json:"hostNs"`

	// panicked marks a cell whose simulation panicked: its result is
	// returned to every subscriber but never cached, because a panic is
	// not an outcome the cell's spec determines.
	panicked bool
	// enc guards full and lite, the result's JSON with and without
	// Counters.  Every view of the cell serves these bytes.
	enc        sync.Once
	full, lite []byte
}

// encode computes the result's two JSON forms, once, and drops the
// decoded counter snapshot.  The farm calls it when a simulation
// completes; a result stored by other means is encoded the first time it
// is served.
func (r *CellResult) encode() {
	r.enc.Do(func() {
		full, err := json.Marshal(r)
		lite := full
		if err == nil && len(r.Counters) > 0 {
			r.Counters = nil
			lite, err = json.Marshal(r)
		}
		if err != nil {
			// Only a non-finite float gets here: serve the failure
			// rather than no bytes.
			r.Err = "farm: cell result not encodable: " + err.Error()
			full, _ = json.Marshal(&CellResult{Key: r.Key, Canonical: r.Canonical, Err: r.Err, HostNS: r.HostNS})
			lite = full
		}
		r.full, r.lite, r.Counters = full, lite, nil
	})
}

// encoded returns the result's JSON, with the counter snapshot when
// counters is set.
func (r *CellResult) encoded(counters bool) []byte {
	r.encode()
	if counters {
		return r.full
	}
	return r.lite
}

// Cache is a bounded LRU of CellResults keyed by content address.  Entry
// count is the bound (a result is held as its encoded JSON: about 0.4 KB,
// plus about 1 KB for the form with counters); the least-recently-used
// entry is evicted first and every eviction is reported through onEvict so
// the farm's `cacheEvicted` counter cannot miss one.
type Cache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element
	onEvict func()
}

type cacheEntry struct {
	key string
	res *CellResult
}

// NewCache creates a cache bounded to max entries (at least 1).  onEvict,
// if non-nil, is called once per evicted entry.
func NewCache(max int, onEvict func()) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{
		max:     max,
		order:   list.New(),
		entries: make(map[string]*list.Element),
		onEvict: onEvict,
	}
}

// Get returns the cached result for key, refreshing its recency.
func (c *Cache) Get(key string) (*CellResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// Put stores res under key, evicting least-recently-used entries beyond the
// bound.  Storing an existing key refreshes the entry.
func (c *Cache) Put(key string, res *CellResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		if c.onEvict != nil {
			c.onEvict()
		}
	}
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
