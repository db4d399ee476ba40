package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// The open-loop schedule is a pure function of the seed.
func TestOpenScheduleIsPureFunctionOfSeed(t *testing.T) {
	a, b := openSchedule(7, 20, 15), openSchedule(7, 20, 15)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if c := openSchedule(8, 20, 15); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	if len(a) != 300 {
		t.Fatalf("20/s for 15 s scheduled %d arrivals, want 300", len(a))
	}
	novel := 0
	bodies := map[string]int{}
	for i, x := range a {
		slot := time.Duration(float64(i) / 20 * float64(time.Second))
		if x.due < slot || x.due >= slot+time.Second/20 {
			t.Errorf("arrival %d due at %v, outside its slot starting %v", i, x.due, slot)
		}
		if x.novel {
			novel++
			if bodies[string(x.body)] > 0 {
				t.Errorf("arrival %d is novel but repeats an earlier spec", i)
			}
		} else if bodies[string(x.body)] == 0 {
			t.Errorf("arrival %d is a repeat of a spec never issued", i)
		}
		bodies[string(x.body)]++
		if !bytes.Contains(x.body, []byte(`"plan":"send:p=0.01"`)) || !bytes.Contains(x.body, []byte(`"scale":"test"`)) {
			t.Errorf("arrival %d: unexpected spec %s", i, x.body)
		}
	}
	if novel != len(a)*2/3 {
		t.Errorf("%d of %d arrivals novel, want exactly two thirds", novel, len(a))
	}
}

// stubFarm answers the two requests of one operation; the first POST stalls.
func stubFarm(stall time.Duration) *httptest.Server {
	var posts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		n := posts.Add(1)
		if n == 1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"s%06d","status":"done"}`, n)
	})
	mux.HandleFunc("GET /v1/sweeps/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"event":"sweep","data":{"id":%q,"status":"done"}}`+"\n", r.PathValue("id"))
	})
	return httptest.NewServer(mux)
}

// Latency is charged from the moment an arrival was due: with one
// connection, a stall on the first operation delays the ones scheduled
// behind it, and each of them is charged its wait.
func TestOpenLoopChargesFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	srv := stubFarm(stall)
	defer srv.Close()
	r := &runner{cfg: runConfig{clients: 1}}
	c := newFarmClient(srv.URL, 1)
	defer c.close()

	// Five arrivals 20 ms apart: all but the first fall due during the stall.
	var sched []arrival
	for i := 0; i < 5; i++ {
		sched = append(sched, arrival{due: time.Duration(i) * 20 * time.Millisecond, body: []byte(`{}`)})
	}
	var cs checks
	ops := r.issueOpen(context.Background(), c, sched, nil, &cs)
	for i, o := range ops {
		if o.err != nil {
			t.Fatalf("op %d: %v", i, o.err)
		}
		fromDue := o.t.done.Sub(o.due)
		service := o.t.done.Sub(o.t.start)
		want := stall - sched[i].due // the stall ends at `stall`; the arrival was due at sched[i].due
		if fromDue < want {
			t.Errorf("op %d: charged %v from its due time, want at least %v", i, fromDue, want)
		}
		if i > 0 && service > stall/2 {
			t.Errorf("op %d: its own service took %v; the stall should only show in the wait", i, service)
		}
		if i > 0 && o.t.start.Sub(o.due) < want-50*time.Millisecond {
			t.Errorf("op %d: started %v after due, want about %v late", i, o.t.start.Sub(o.due), want)
		}
	}
}

// Once the phase's context is done — its server died, or it overran its
// grace — the arrivals not yet issued fail at once instead of waiting for
// their due times.
func TestOpenLoopGivesUpWhenThePhaseEnds(t *testing.T) {
	srv := stubFarm(0)
	defer srv.Close()
	r := &runner{cfg: runConfig{clients: 1}}
	c := newFarmClient(srv.URL, 1)
	defer c.close()
	sched := []arrival{{due: 0, body: []byte(`{}`)}, {due: time.Hour, body: []byte(`{}`)}, {due: 2 * time.Hour, body: []byte(`{}`)}}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	var cs checks
	start := time.Now()
	ops := r.issueOpen(ctx, c, sched, nil, &cs)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("the open loop outlived its phase by %v", d)
	}
	if ops[0].err != nil {
		t.Errorf("the arrival that was due failed: %v", ops[0].err)
	}
	for i, o := range ops[1:] {
		if o.err == nil {
			t.Errorf("arrival %d, never due, did not fail", i+1)
		}
	}
}
