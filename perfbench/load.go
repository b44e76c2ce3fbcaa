package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loopir"
	"repro/internal/service"
	"repro/internal/trace"
)

// clients is the closed loop's width: one connection per CPU of the
// reference host, because the service's callers (compilers, autotuners)
// each wait for their answer before asking again.
const clients = 2

// outcome is one timed request: its index in the workload stream, latency,
// completion time since the window opened, status and the SHA-256 of the
// body it received.
type outcome struct {
	idx    int
	lat    time.Duration
	done   time.Duration
	status int
	sum    [sha256.Size]byte
}

// client sends workload requests over at most `clients` keep-alive
// connections. A request is written and its response read on the calling
// goroutine (http.ReadResponse), so a round trip costs no hand-off to
// per-connection goroutines: on a small virtual machine such hand-offs are
// cross-CPU wake-ups whose latency drifts with the host's load.
type client struct {
	addr string
	idle chan *conn
}

type conn struct {
	nc net.Conn
	br *bufio.Reader
}

func newClient(addr string) *client {
	return &client{addr: addr, idle: make(chan *conn, clients)}
}

// close closes the idle connections.
func (c *client) close() {
	for {
		select {
		case cn := <-c.idle:
			cn.nc.Close()
		default:
			return
		}
	}
}

// do sends q and hashes the response body as it streams in. A transport
// failure reports status 0.
func (c *client) do(q request) (int, [sha256.Size]byte) {
	var sum [sha256.Size]byte
	var cn *conn
	select {
	case cn = <-c.idle:
	default:
		nc, err := net.DialTimeout("tcp", c.addr, 10*time.Second)
		if err != nil {
			return 0, sum
		}
		cn = &conn{nc: nc, br: bufio.NewReader(nc)}
	}
	status, keep, err := cn.roundTrip(q, &sum)
	if err != nil {
		cn.nc.Close()
		return 0, sum
	}
	if !keep {
		cn.nc.Close()
		return status, sum
	}
	select {
	case c.idle <- cn:
	default:
		cn.nc.Close()
	}
	return status, sum
}

// roundTrip writes one HTTP/1.1 POST and reads its response, hashing the
// body into sum. keep reports whether the connection may be reused.
func (cn *conn) roundTrip(q request, sum *[sha256.Size]byte) (status int, keep bool, err error) {
	if err := cn.nc.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		return 0, false, err
	}
	msg := fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", q.Path, len(q.Body))
	if _, err := cn.nc.Write(append(msg, q.Body...)); err != nil {
		return 0, false, err
	}
	resp, err := http.ReadResponse(cn.br, nil)
	if err != nil {
		return 0, false, err
	}
	h := sha256.New()
	_, err = io.Copy(h, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, false, err
	}
	h.Sum(sum[:0])
	return resp.StatusCode, !resp.Close, nil
}

// prime sends each request once and requires a 200.
func (c *client) prime(reqs []request) error {
	for _, q := range reqs {
		if status, _ := c.do(q); status != http.StatusOK {
			return fmt.Errorf("priming %s answered %d", q.Path, status)
		}
	}
	return nil
}

// runLoop drives the workload closed-loop from `clients` goroutines until
// d has passed or a non-cyclic stream is used up, and returns the outcomes
// in stream order plus the wall time until the last answer arrived.
func runLoop(w *workload, d time.Duration, send func(request) (int, [sha256.Size]byte)) ([]outcome, time.Duration) {
	var next atomic.Int64
	per := make([][]outcome, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if !w.Cyclic && i >= len(w.Stream) {
					return
				}
				t := time.Now()
				status, sum := send(w.Stream[i%len(w.Stream)])
				end := time.Now()
				per[g] = append(per[g], outcome{idx: i, lat: end.Sub(t), done: end.Sub(start), status: status, sum: sum})
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var outs []outcome
	for _, o := range per {
		outs = append(outs, o...)
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].idx < outs[j].idx })
	return outs, elapsed
}

// percentileMs is the nearest-rank q-quantile of the latencies, in ms.
func percentileMs(outs []outcome, q float64) float64 {
	lats := make([]time.Duration, len(outs))
	for i, o := range outs {
		lats[i] = o.lat
	}
	return quantile(lats, q).Seconds() * 1e3
}

// windowStats splits the first `span` of a run into one-second slices by
// completion time and returns the medians, over the slices kept, of the
// verified items per second and of the latency p50 and p90. items gives
// each outcome's verified item count.
//
// The host is a virtual machine whose hypervisor takes CPU time away for
// other guests ("steal"), for seconds at a time and by up to a third.
// When steal holds the hypervisor's steal time per slice, only the slices
// with no more steal than the lower-quartile slice are kept (at least a
// quarter of them, and all of them when none was stolen from), so the
// figures describe the program rather than its neighbours; with no steal
// figures every slice is kept.
func windowStats(outs []outcome, span time.Duration, steal []int64, items func(outcome) int) (rate, p50, p90 float64) {
	k := int(span / time.Second)
	if k < 1 {
		k = 1
	}
	width := span / time.Duration(k)
	counts := make([]int, k)
	lats := make([][]time.Duration, k)
	for _, o := range outs {
		if o.done >= span {
			continue
		}
		b := int(o.done / width)
		counts[b] += items(o)
		lats[b] = append(lats[b], o.lat)
	}
	limit := int64(math.MaxInt64)
	if len(steal) >= k {
		s := append([]int64(nil), steal[:k]...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		limit = s[(k-1)/4]
	}
	var rates, p50s, p90s []float64
	for b := range counts {
		if len(steal) >= k && steal[b] > limit {
			continue
		}
		rates = append(rates, float64(counts[b])/width.Seconds())
		if len(lats[b]) > 0 {
			p50s = append(p50s, quantile(lats[b], 0.5).Seconds()*1e3)
			p90s = append(p90s, quantile(lats[b], 0.9).Seconds()*1e3)
		}
	}
	return median(rates), median(p50s), median(p90s)
}

// stealSampler reads the host's cumulative steal time from /proc/stat at
// every slice boundary of a measured window.
type stealSampler struct {
	stop  chan struct{}
	done  chan struct{}
	marks []int64
}

// startStealSampler samples now and then every width until stopped. It
// returns nil where /proc/stat has no steal figure.
func startStealSampler(width time.Duration) *stealSampler {
	first, err := readSteal()
	if err != nil {
		return nil
	}
	s := &stealSampler{stop: make(chan struct{}), done: make(chan struct{}), marks: []int64{first}}
	go func() {
		defer close(s.done)
		t := time.NewTicker(width)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if v, err := readSteal(); err == nil {
					s.marks = append(s.marks, v)
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the steal time of each slice.
func (s *stealSampler) finish() []int64 {
	if s == nil {
		return nil
	}
	close(s.stop)
	<-s.done
	per := make([]int64, 0, len(s.marks))
	for i := 1; i < len(s.marks); i++ {
		per = append(per, s.marks[i]-s.marks[i-1])
	}
	return per
}

// readSteal returns the steal field of /proc/stat's aggregate cpu line, in
// clock ticks.
func readSteal() (int64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("no steal field in /proc/stat")
	}
	return strconv.ParseInt(f[8], 10, 64)
}

func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// reference is a request's expected response, computed by an in-process
// service independent of the server under test.
type reference struct {
	sum      [sha256.Size]byte
	accesses int64 // the response's "accesses" field (predict answers)
}

// references computes the expected response of each request with a fresh
// in-process service.Service's Compute: the bytes the server must serve,
// obtained without HTTP, caches or admission. Two goroutines share the
// work.
func references(reqs []request) ([]reference, error) {
	svc := service.New(service.Config{})
	defer svc.Close()
	refs := make([]reference, len(reqs))
	errs := make([]error, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				data, err := svc.Compute(context.Background(), reqs[i].Path, reqs[i].Body)
				if err != nil {
					errs[g] = fmt.Errorf("reference for request %d (%s): %w", i, reqs[i].Path, err)
					return
				}
				refs[i].sum = sha256.Sum256(data)
				if reqs[i].Path == "/v1/predict" {
					var p struct {
						Accesses int64 `json:"accesses"`
					}
					if err := json.Unmarshal(data, &p); err != nil {
						errs[g] = err
						return
					}
					refs[i].accesses = p.Accesses
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// traceLength counts the accesses of an inline-nest request by running
// its reference trace through the trace interpreter, a second
// implementation of the nest semantics that shares nothing with the model.
func traceLength(q request) (int64, error) {
	var b body
	if err := json.Unmarshal(q.Body, &b); err != nil {
		return 0, err
	}
	nest, err := loopir.Parse(b.Nest)
	if err != nil {
		return 0, err
	}
	env := map[string]int64{}
	for k, v := range b.Env {
		env[k] = v
	}
	p, err := trace.Compile(nest, env)
	if err != nil {
		return 0, err
	}
	var n int64
	p.RunBlocks(trace.DefaultBlockSize, func(_ []int32, addrs []int64) { n += int64(len(addrs)) })
	return n, nil
}
