package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// request is one scripted call of a closed-loop load run.
type request struct {
	path string
	body []byte
	// want, when non-nil, is the exact body the call must return with
	// status 200. Any other status or body counts as a mismatch: an error
	// status is no more a correct answer than wrong bytes are.
	want []byte
	// items is the number of work items a 200 represents (0 means 1): a
	// batch of 64 counts 64, which makes items/s comparable across batch
	// sizes.
	items int
	// check, when non-nil, validates every response beyond the byte
	// comparison (NDJSON framing); a non-nil return counts as a check
	// failure.
	check func(status int, body []byte) error
}

// loadOptions configures a closed-loop run: clients goroutines, each with
// one request outstanding, walking the script back-to-back from staggered
// offsets, so throughput is set by service latency. Exactly one of rounds
// (every client walks the script that many times) and duration
// (wall-clock) is the stopping rule.
type loadOptions struct {
	baseURL  string
	clients  int
	rounds   int
	duration time.Duration
	script   []request
}

// loadResult aggregates a run.
type loadResult struct {
	requests      int64 // responses received
	verified      int64 // responses checked against want
	mismatches    int64 // checked responses that were not a 200 with want's bytes
	errors        int64 // transport failures
	checkFailures int64
	items         int64 // work items in 200s
	elapsed       time.Duration
	latencies     []time.Duration            // sorted
	byPath        map[string][]time.Duration // sorted, per request path
}

// failed counts everything that makes a run's numbers untrustworthy.
func (r *loadResult) failed() int64 { return r.mismatches + r.errors + r.checkFailures }

// itemsPerSec is the rate of work items in 200 responses; for scripts
// without batches, the rate of 200s.
func (r *loadResult) itemsPerSec() float64 { return float64(r.items) / r.elapsed.Seconds() }

// quantile returns the q-quantile of sorted latencies (0 when empty).
func quantile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	return lat[int(q*float64(len(lat)-1))]
}

// run executes the load test.
func (o loadOptions) run() (*loadResult, error) {
	if o.clients <= 0 {
		return nil, fmt.Errorf("load: need at least one client")
	}
	if len(o.script) == 0 {
		return nil, fmt.Errorf("load: empty script")
	}
	if (o.rounds > 0) == (o.duration > 0) {
		return nil, fmt.Errorf("load: set exactly one of rounds and duration")
	}

	stats := make([]loadResult, o.clients)
	var stop atomic.Bool
	if o.duration > 0 {
		timer := time.AfterFunc(o.duration, func() { stop.Store(true) })
		defer timer.Stop()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func(st *loadResult, c int) {
			defer wg.Done()
			st.byPath = map[string][]time.Duration{}
			client := &http.Client{Timeout: 60 * time.Second}
			for i := c; ; i++ {
				if o.duration > 0 && stop.Load() || o.rounds > 0 && i-c >= o.rounds*len(o.script) {
					return
				}
				o.do(client, o.script[i%len(o.script)], st)
			}
		}(&stats[c], c)
	}
	wg.Wait()

	res := &loadResult{byPath: map[string][]time.Duration{}, elapsed: time.Since(start)}
	for c := range stats {
		st := &stats[c]
		res.requests += st.requests
		res.verified += st.verified
		res.mismatches += st.mismatches
		res.errors += st.errors
		res.checkFailures += st.checkFailures
		res.items += st.items
		res.latencies = append(res.latencies, st.latencies...)
		for path, lats := range st.byPath {
			res.byPath[path] = append(res.byPath[path], lats...)
		}
	}
	slices.Sort(res.latencies)
	for _, lats := range res.byPath {
		slices.Sort(lats)
	}
	return res, nil
}

// do issues one request and records its outcome in st.
func (o loadOptions) do(client *http.Client, req request, st *loadResult) {
	t0 := time.Now()
	resp, err := client.Post(o.baseURL+req.path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		st.errors++
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		st.errors++
		return
	}
	lat := time.Since(t0)
	st.latencies = append(st.latencies, lat)
	st.byPath[req.path] = append(st.byPath[req.path], lat)
	st.requests++
	ok := resp.StatusCode == http.StatusOK
	if ok {
		st.items += int64(max(req.items, 1))
	}
	if req.want != nil {
		st.verified++
		if !ok || !bytes.Equal(body, req.want) {
			st.mismatches++
		}
	}
	if req.check != nil && req.check(resp.StatusCode, body) != nil {
		st.checkFailures++
	}
}

// loadRows reports a run as rows: its throughput, its p99 latency, and
// its failures.
func loadRows(name string, res *loadResult) []Row {
	return []Row{
		{Name: name, Unit: "items/s", Value: res.itemsPerSec(), Iterations: int(res.requests)},
		{Name: name + ".p99", Unit: "µs", Value: float64(quantile(res.latencies, 0.99).Microseconds())},
		{Name: name + ".failures", Unit: failuresUnit, Value: float64(res.failed())},
	}
}
