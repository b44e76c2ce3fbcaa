package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/service"
)

// setupReps is how many times a timed run sets a server up; setup_s is
// their median, and the last server set up is the one measured.
const setupReps = 11

// streamRate is the request rate, per second of the measured window, that
// a non-cyclic workload's pre-generated stream covers: about twice the
// rate measured on the reference host. A faster server that uses the
// stream up ends its window early, and the rates stay per measured second.
var streamRate = map[string]int{
	"fresh-sweep": 1700,
	"cold-nests":  2000,
	"search":      450,
}

func streamLen(name string, seconds float64) int {
	return int(float64(streamRate[name]) * seconds)
}

// timed runs one workload end to end against analysisd children.
func timed(name string, seed int64, seconds float64, bin string) (*result, error) {
	w, err := generate(name, seed, streamLen(name, seconds))
	if err != nil {
		return nil, err
	}
	// A cyclic stream's expected bytes are known before timing; the
	// others' depend on how far the window gets and are computed after it.
	var refs []reference
	if w.Cyclic {
		if refs, err = references(w.Stream); err != nil {
			return nil, err
		}
	}

	srv, setups, err := setUp(w, bin)
	if err != nil {
		return nil, err
	}
	c := newClient(srv.addr)
	before, err := srv.counters()
	if err != nil {
		srv.kill()
		return nil, err
	}
	runtime.GC()
	debug.FreeOSMemory()
	sampler := startStealSampler(time.Second)
	outs, elapsed := runLoop(w, time.Duration(seconds*float64(time.Second)), c.do)
	steal := sampler.finish()
	fmt.Printf("window %.3fs, %d requests, steal ticks per second %v\n", elapsed.Seconds(), len(outs), steal)
	after, err := srv.counters()
	if err != nil {
		srv.kill()
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		srv.kill()
		return nil, err
	}
	c.close()
	if err := srv.stop(); err != nil {
		return nil, err
	}
	if len(outs) == 0 {
		return nil, fmt.Errorf("no request completed in the measured window")
	}
	if !w.Cyclic {
		if len(outs) == len(w.Stream) {
			fmt.Fprintf(os.Stderr, "perfbench: %s used up its %d-request stream after %.2fs\n", name, len(outs), elapsed.Seconds())
		}
		if refs, err = references(w.Stream[:len(outs)]); err != nil {
			return nil, err
		}
	}

	verified := func(o outcome) int {
		i := o.idx % len(w.Stream)
		if o.status == http.StatusOK && o.sum == refs[i].sum {
			return w.Stream[i].Items
		}
		return 0
	}
	ok := 0
	for _, o := range outs {
		if verified(o) > 0 {
			ok++
		}
	}
	span := time.Duration(seconds * float64(time.Second))
	if last := outs[len(outs)-1].done; !w.Cyclic && len(outs) == len(w.Stream) && last < span {
		span = last // the stream ran out first
	}
	rate, p50, p90 := windowStats(outs, span, steal, verified)
	problems := shapeProblems(w, outs, refs, delta(before, after))
	for i, p := range problems {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: shape: %d more problems\n", len(problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: shape:", p)
	}
	fmt.Printf("client.latency_p99_ms %.4f ms (not gated)\n", percentileMs(outs, 0.99))
	return &result{
		Correct:   ok == len(outs) && len(problems) == 0,
		Attempted: len(outs),
		Failed:    len(outs) - ok,
		Metrics: map[string]metric{
			"items_per_s":        {rate, "1/s"},
			"latency_p50_ms":     {p50, "ms"},
			"latency_p90_ms":     {p90, "ms"},
			"ok_ratio":           {float64(ok) / float64(len(outs)), "ratio"},
			"setup_s":            {median(setups), "s"},
			"server_rss_peak_mb": {rss, "MiB"},
		},
	}, nil
}

// setUp starts and primes a server setupReps times, timing each from exec
// to the end of priming, and returns the last one still running.
func setUp(w *workload, bin string) (*server, []float64, error) {
	var setups []float64
	for k := 0; ; k++ {
		t0 := time.Now()
		srv, err := startServer(bin)
		if err != nil {
			return nil, nil, err
		}
		c := newClient(srv.addr)
		err = c.prime(w.Prime)
		c.close()
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			srv.kill()
			return nil, nil, err
		}
		if k == setupReps-1 {
			return srv, setups, nil
		}
		if err := srv.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// median is the median of xs, 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func delta(before, after map[string]int64) map[string]int64 {
	d := map[string]int64{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// shapeProblems checks that the server did the kind of work the workload
// exists to measure, from its counter deltas over the window, so that a
// workload cannot silently turn into another one.
func shapeProblems(w *workload, outs []outcome, refs []reference, d map[string]int64) []string {
	var items int64
	for _, o := range outs {
		items += int64(w.Stream[o.idx%len(w.Stream)].Items)
	}
	reqs := int64(len(outs))
	var p []string
	expect := func(what string, got, want int64) {
		if got != want {
			p = append(p, fmt.Sprintf("%s: %s is %d, want %d", w.Name, what, got, want))
		}
	}
	switch w.Name {
	case "hot-repeat":
		expect("response-cache hits", d["service.cache.hits"], d["service.cache.lookups"])
		expect("response-cache misses", d["service.cache.misses"], 0)
	case "fresh-sweep":
		expect("response-cache misses", d["service.cache.misses"], items)
		expect("analysis-cache hits", d["service.analyses.hits"], items)
		expect("analysis-cache misses", d["service.analyses.misses"], 0)
	case "cold-nests":
		expect("analysis-cache misses", d["service.analyses.misses"], reqs)
		expect("analysis-cache hits", d["service.analyses.hits"], 0)
		keys := map[string]bool{}
		for _, o := range outs {
			q := w.Stream[o.idx]
			k, err := service.CanonicalKeyForRequest(q.Path, q.Body)
			if err != nil {
				p = append(p, fmt.Sprintf("cold-nests: request %d: %v", o.idx, err))
				continue
			}
			keys[k] = true
			n, err := traceLength(q)
			if err != nil {
				p = append(p, fmt.Sprintf("cold-nests: request %d: trace: %v", o.idx, err))
			} else if n != refs[o.idx].accesses {
				p = append(p, fmt.Sprintf("cold-nests: request %d: model counts %d accesses, the trace %d", o.idx, refs[o.idx].accesses, n))
			}
		}
		expect("distinct canonical keys", int64(len(keys)), reqs)
	case "search":
		expect("response-cache misses", d["service.cache.misses"], reqs)
	}
	// Every request probes the response cache at least once; fewer lookups
	// mean the counters were not read, and the checks above held vacuously.
	if d["service.cache.lookups"] < reqs {
		p = append(p, fmt.Sprintf("%s: %d response-cache lookups for %d requests", w.Name, d["service.cache.lookups"], reqs))
	}
	return p
}
