package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"cables/internal/metrics"
)

// spec is the JSON body of POST /v1/sweeps — only the fields the workloads
// set; everything else takes the farm's defaults.
type spec struct {
	Kind          string   `json:"kind,omitempty"`
	Apps          []string `json:"apps,omitempty"`
	Procs         []int    `json:"procs,omitempty"`
	Scale         string   `json:"scale,omitempty"`
	ContendedSync bool     `json:"contendedSync,omitempty"`
	Plan          string   `json:"plan,omitempty"`
	Seed          uint64   `json:"seed,omitempty"`
}

// cellEvent is the part of a stream "cell" event the checks read.
type cellEvent struct {
	Key     string      `json:"key"`
	App     string      `json:"app"`
	Procs   int         `json:"procs"`
	Backend string      `json:"backend"`
	Status  string      `json:"status"`
	Cached  bool        `json:"cached"`
	Result  *cellResult `json:"result"`
}

// cellResult is the farm's CellResult as far as the benchmark reads it.
type cellResult struct {
	Result struct {
		Parallel int64 // virtual ns of the parallel section
		Checksum float64
	} `json:"result"`
	Counters map[string]int64 `json:"counters"`
	Err      string           `json:"error"`
	HostNS   int64            `json:"hostNs"`
}

func (c *cellEvent) terminal() bool { return c.Status == "done" || c.Status == "failed" }

// farmClient issues sweeps to one server over at most conns connections.
type farmClient struct {
	base string
	hc   *http.Client
}

func newFarmClient(base string, conns int) *farmClient {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
		DisableCompression: true}
	return &farmClient{base: base, hc: &http.Client{Transport: tr}}
}

func (c *farmClient) close() { c.hc.CloseIdleConnections() }

// sweepTiming is one operation as the client saw it.
type sweepTiming struct {
	start, posted, first, done time.Time
	bytes                      int // response bytes read, POST body plus stream
}

// sweep runs one operation: POST the spec, then follow the stream (SSE, or
// NDJSON when ndjson is set) to the terminal sweep event.  Every stream
// event is handed to onEvent as (kind, payload); the payload is only valid
// during the call.  A non-2xx answer, a stream that ends early, or a
// deadline is an error.
func (c *farmClient) sweep(ctx context.Context, body []byte, ndjson bool, onEvent func(kind string, data []byte)) (sweepTiming, error) {
	var t sweepTiming
	ctx, cancel := context.WithTimeout(ctx, sweepDeadline)
	defer cancel()
	t.start = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return t, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return t, err
	}
	accepted, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return t, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return t, fmt.Errorf("POST /v1/sweeps: %s: %.200s", resp.Status, accepted)
	}
	t.posted = time.Now()
	t.bytes = len(accepted)
	// The body starts {"id":"s000001",...; the id is all the client needs.
	id, ok := cutField(accepted, `"id":"`)
	if !ok {
		return t, fmt.Errorf("POST /v1/sweeps: no sweep id in %.80s", accepted)
	}

	url := c.base + "/v1/sweeps/" + string(id) + "/stream"
	if ndjson {
		url += "?format=ndjson"
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return t, err
	}
	resp, err = c.hc.Do(req)
	if err != nil {
		return t, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return t, fmt.Errorf("GET stream: %s", resp.Status)
	}
	finished := false
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	kind := ""
	for !finished {
		line, err := rd.ReadSlice('\n')
		if err != nil {
			return t, fmt.Errorf("stream %s ended before the sweep event: %w", id, err)
		}
		t.bytes += len(line)
		line = bytes.TrimRight(line, "\n")
		var data []byte
		switch {
		case len(line) == 0:
			continue
		case ndjson:
			// {"event":"cell","data":{...}}
			k, ok := cutField(line, `{"event":"`)
			if !ok {
				return t, fmt.Errorf("stream %s: malformed line %.80s", id, line)
			}
			kind = string(k)
			i := bytes.Index(line, []byte(`"data":`))
			if i < 0 || line[len(line)-1] != '}' {
				return t, fmt.Errorf("stream %s: malformed line %.80s", id, line)
			}
			data = line[i+len(`"data":`) : len(line)-1]
		case bytes.HasPrefix(line, []byte("event: ")):
			kind = string(line[len("event: "):])
			continue
		case bytes.HasPrefix(line, []byte("data: ")):
			data = line[len("data: "):]
		default:
			return t, fmt.Errorf("stream %s: malformed line %.80s", id, line)
		}
		if t.first.IsZero() {
			t.first = time.Now()
		}
		onEvent(kind, data)
		finished = kind == "sweep"
	}
	t.done = time.Now()
	io.Copy(io.Discard, rd) // drain to EOF so the connection is reused
	return t, nil
}

// cutField returns the bytes between the first occurrence of prefix and the
// next double quote: a string field's value without a JSON decode.
func cutField(b []byte, prefix string) ([]byte, bool) {
	i := bytes.Index(b, []byte(prefix))
	if i < 0 {
		return nil, false
	}
	rest := b[i+len(prefix):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return nil, false
	}
	return rest[:j], true
}

// exposition is one parsed GET /metrics scrape.
type exposition struct {
	samples []metrics.Sample
}

// scrape fetches and parses /metrics with the repository's own parser.
func (c *farmClient) scrape(ctx context.Context) (*exposition, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseExposition(resp.Body)
}

func parseExposition(r io.Reader) (*exposition, error) {
	sc, err := metrics.ParseText(r)
	if err != nil {
		return nil, fmt.Errorf("parse /metrics: %w", err)
	}
	return &exposition{samples: sc.Samples}, nil
}

// sum adds up every sample of the named series whose labels include all of
// match ("k=v" pairs).  A nil exposition reads as all zeros, which is what a
// fresh server would have answered.
func (e *exposition) sum(name string, match ...string) float64 {
	if e == nil {
		return 0
	}
	total := 0.0
next:
	for _, s := range e.samples {
		if s.Name != name {
			continue
		}
		for _, kv := range match {
			k, v, _ := strings.Cut(kv, "=")
			if s.Labels[k] != v {
				continue next
			}
		}
		total += s.Value
	}
	return total
}

// delta is what the named series gained between two scrapes.
func delta(before, after *exposition, name string, match ...string) float64 {
	return after.sum(name, match...) - before.sum(name, match...)
}

// histMeanMS is the mean of a histogram's observations between two scrapes,
// in milliseconds (the farm's histograms are in seconds).
func histMeanMS(before, after *exposition, family string, match ...string) float64 {
	n := delta(before, after, family+"_count", match...)
	if n == 0 {
		return 0
	}
	return delta(before, after, family+"_sum", match...) / n * 1e3
}

// cacheOutcomes is the farm's per-cell cache accounting between two scrapes.
type cacheOutcomes struct{ hits, misses, coalesced, evictions float64 }

func cacheDelta(before, after *exposition) cacheOutcomes {
	const fam = "cables_farm_cache_requests_total"
	return cacheOutcomes{
		hits:      delta(before, after, fam, "outcome=hit"),
		misses:    delta(before, after, fam, "outcome=miss"),
		coalesced: delta(before, after, fam, "outcome=coalesced"),
		evictions: delta(before, after, "cables_farm_cache_evictions_total"),
	}
}

func (o cacheOutcomes) hitRatio() float64 {
	if n := o.hits + o.misses + o.coalesced; n > 0 {
		return o.hits / n
	}
	return 0
}

// mustJSON marshals a value that cannot fail to marshal.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
