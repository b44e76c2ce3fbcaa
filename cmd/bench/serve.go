package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// Load sizes.
const (
	serveClients      = 32
	serveSmokeClients = 16
	stormClients      = 64

	clusterReplicas = 4
	clusterKeys     = 24 // distinct specs: more than one replica's caches hold
	clusterClients  = 8
)

const predictHot = `{"kernel":"matmul","n":64,"tiles":[8,8,8],"cacheKB":64}`

// mixedScript has distinct cache keys over every endpoint: predicts, an
// analyze, a simulation through each engine (exact, analytic — including
// a size exact rejects — and sampled), and the joint optimize on the
// unfused two-index chain, the heaviest per-miss computation in the mix.
var mixedScript = [][2]string{
	{"/v1/predict", predictHot},
	{"/v1/predict", `{"kernel":"matmul","n":64,"tiles":[16,16,16],"cacheKB":64}`},
	{"/v1/analyze", `{"kernel":"matmul","n":64,"tiles":[8,8,8]}`},
	{"/v1/simulate", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"watchKB":[1,4]}`},
	{"/v1/simulate", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"watchKB":[1,4],"engine":"analytic"}`},
	{"/v1/simulate", `{"kernel":"matmul","n":256,"tiles":[32,32,32],"watchKB":[16],"engine":"analytic"}`},
	{"/v1/simulate", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"watchKB":[1,4],"engine":"sampled"}`},
	{"/v1/optimize", `{"kernel":"twoindexchain","n":32,"cacheElems":256,"autoTile":false}`},
}

// batchBody is a /v1/batch candidates request of the given size: the
// matmul n=64 spec swept over distinct tile triples drawn from the
// divisors of 64, so every item is valid and cache-hot after one round.
func batchBody(size int) []byte {
	divs := []int64{1, 2, 4, 8, 16, 32, 64}
	var buf bytes.Buffer
	buf.WriteString(`{"candidates":{"kernel":"matmul","n":64,"tiles":[8,8,8],"cacheKB":64,"dims":["TI","TJ","TK"],"sets":[`)
	for i := 0; i < size; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "[%d,%d,%d]", divs[i%7], divs[(i/7)%7], divs[(i/49)%7])
	}
	buf.WriteString(`]}}`)
	return buf.Bytes()
}

// streamWant re-frames a batch envelope as the NDJSON stream the server
// promises for ?stream=1: each item record on its own line, then the
// summary trailer.
func streamWant(envelope []byte) ([]byte, error) {
	var env struct {
		Items   []json.RawMessage `json:"items"`
		Summary json.RawMessage   `json:"summary"`
	}
	if err := json.Unmarshal(envelope, &env); err != nil {
		return nil, fmt.Errorf("envelope: %w", err)
	}
	var buf bytes.Buffer
	for _, it := range env.Items {
		buf.Write(it)
		buf.WriteByte('\n')
	}
	buf.WriteString(`{"summary":`)
	buf.Write(env.Summary)
	buf.WriteString("}\n")
	return buf.Bytes(), nil
}

// ndjsonCheck enforces the framing contract of a streamed response: the
// body ends on a line boundary, every line is valid JSON, and the last
// line is a summary trailer.
func ndjsonCheck(status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("status %d", status)
	}
	if len(body) == 0 || body[len(body)-1] != '\n' {
		return fmt.Errorf("stream does not end on a line boundary")
	}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte{'\n'}), []byte{'\n'})
	for i, line := range lines {
		if !json.Valid(line) {
			return fmt.Errorf("record %d is not valid JSON", i)
		}
	}
	if !bytes.Contains(lines[len(lines)-1], []byte(`"summary"`)) {
		return fmt.Errorf("final record is not a summary trailer")
	}
	return nil
}

// resultStreamCheck checks a result-bearing stream (tile search, optimize):
// its last two records must be the direct computation's result and the ok
// trailer.
func resultStreamCheck(want []byte) func(int, []byte) error {
	want = bytes.TrimSuffix(want, []byte{'\n'})
	return func(status int, body []byte) error {
		if err := ndjsonCheck(status, body); err != nil {
			return err
		}
		lines := bytes.Split(bytes.TrimSuffix(body, []byte{'\n'}), []byte{'\n'})
		if len(lines) < 2 {
			return fmt.Errorf("only %d records", len(lines))
		}
		if string(lines[len(lines)-1]) != `{"summary":{"ok":true}}` {
			return fmt.Errorf("trailer %s is not the ok summary", lines[len(lines)-1])
		}
		var rec struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(lines[len(lines)-2], &rec); err != nil || rec.Result == nil {
			return fmt.Errorf("missing result record")
		}
		if !bytes.Equal(rec.Result, want) {
			return fmt.Errorf("streamed result differs from the direct computation")
		}
		return nil
	}
}

// serveRows drives an in-process server with closed-loop clients. The
// expected bytes of every request come from a direct Compute on the same
// Service, which also leaves the response cache hot.
//
//   - predict-hot: one cache-hot predict, the serving-overhead ceiling
//     and the baseline of the batch gate;
//   - batch-1/8/64: /v1/batch sweeps, items/s is the amortization;
//   - mixed: every endpoint with distinct cache keys;
//   - stream: NDJSON batch, tile-search and optimize streams;
//   - storm: 64 clients mixing single predicts with batch-64 sweeps; the
//     singles' p99 over a singles-only run's is the interference ratio.
func serveRows(c *config) (rows []Row, err error) {
	svc := service.New(service.Config{QueueDepth: 256})
	sv, err := service.Serve("127.0.0.1:0", svc)
	if err != nil {
		svc.Close()
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), service.DrainTimeout)
		defer cancel()
		if derr := sv.Drain(ctx); err == nil {
			err = derr
		}
	}()

	req := func(path string, body []byte, items int) (request, error) {
		want, err := svc.Compute(context.Background(), path, body)
		if err != nil {
			return request{}, fmt.Errorf("direct compute %s: %w", path, err)
		}
		return request{path: path, body: body, want: want, items: items}, nil
	}
	clients := serveClients
	if c.smoke {
		clients = serveSmokeClients
	}
	scenario := func(name string, clients int, script ...request) (*loadResult, error) {
		res, err := loadOptions{baseURL: "http://" + sv.Addr(), clients: clients, rounds: c.rounds, duration: c.duration, script: script}.run()
		if err == nil {
			rows = append(rows, loadRows(name, res)...)
		}
		return res, err
	}

	hot, err := req("/v1/predict", []byte(predictHot), 1)
	if err != nil {
		return nil, err
	}
	if _, err := scenario("predict-hot", clients, hot); err != nil {
		return nil, err
	}
	sizes := []int{1, 8, 64}
	if c.smoke {
		sizes = []int{64}
	}
	batches := map[int]request{}
	for _, size := range sizes {
		if batches[size], err = req("/v1/batch", batchBody(size), size); err != nil {
			return nil, err
		}
		if _, err := scenario(fmt.Sprintf("batch-%d", size), clients, batches[size]); err != nil {
			return nil, err
		}
	}
	if c.smoke {
		return rows, nil
	}

	var mixed []request
	for _, m := range mixedScript {
		r, err := req(m[0], []byte(m[1]), 1)
		if err != nil {
			return nil, err
		}
		mixed = append(mixed, r)
	}
	if _, err := scenario("mixed", clients, mixed...); err != nil {
		return nil, err
	}
	stream, err := streamScript(req)
	if err != nil {
		return nil, err
	}
	if _, err := scenario("stream", clients, stream...); err != nil {
		return nil, err
	}
	base, err := scenario("storm-base", stormClients, hot)
	if err != nil {
		return nil, err
	}
	storm, err := scenario("storm", stormClients, hot, hot, hot, hot, batches[64])
	if err != nil {
		return nil, err
	}
	ratio := float64(quantile(storm.byPath[hot.path], 0.99)) / float64(quantile(base.latencies, 0.99))
	return append(rows, Row{Name: "storm.singles_p99_ratio", Unit: "x", Value: ratio}), nil
}

// streamScript builds the stream scenario: a streamed batch whose bytes
// must equal the aggregate envelope re-framed as NDJSON, and streamed tile
// and joint-plan searches whose result records must match the
// non-streaming responses.
func streamScript(req func(string, []byte, int) (request, error)) ([]request, error) {
	batch, err := req("/v1/batch", batchBody(8), 8)
	if err != nil {
		return nil, err
	}
	sw, err := streamWant(batch.want)
	if err != nil {
		return nil, err
	}
	ts, err := req("/v1/tilesearch", []byte(`{"kernel":"matmul","n":32,"tiles":[4,4,4],"cacheKB":4,"dims":{"TI":32,"TJ":32,"TK":32}}`), 1)
	if err != nil {
		return nil, err
	}
	opt, err := req("/v1/optimize", []byte(`{"kernel":"twoindexchain","n":32,"cacheElems":256,"autoTile":false}`), 1)
	if err != nil {
		return nil, err
	}
	return []request{
		{path: "/v1/batch?stream=1", body: batch.body, want: sw, items: 8, check: ndjsonCheck},
		{path: "/v1/tilesearch?stream=1", body: ts.body, check: resultStreamCheck(ts.want)},
		{path: "/v1/optimize?stream=1", body: opt.body, check: resultStreamCheck(opt.want)},
	}, nil
}

// sweepNest renders the i-th distinct spec of the cluster sweep: a tiled
// matmul-shaped nest whose name embeds i, so each spec canonicalizes to
// its own nest text — its own response key and its own analysis-cache
// entry (varying only env would thrash one LRU but not the other).
func sweepNest(i int) string {
	return fmt.Sprintf(`nest sweep%03d
array A[N, N]
array B[N, N]
array C[N, N]
array D[N, N]
array E[N, N]
array F[N, N]
array G[N, N]

for iT = ceil(N/TI) {
  for jT = ceil(N/TJ) {
    for iI = TI { for jI = TJ {
      S0: C[iT*TI + iI, jT*TJ + jI] = 0
    } }
    for iI = TI { for jI = TJ {
      S1: E[iT*TI + iI, jT*TJ + jI] = 0
    } }
    for iI = TI { for jI = TJ {
      S2: G[iT*TI + iI, jT*TJ + jI] = 0
    } }
    for kT = ceil(N/TK) {
      for iI = TI { for jI = TJ { for kI = TK {
        S3: C[iT*TI + iI, jT*TJ + jI] += A[iT*TI + iI, kT*TK + kI] * B[kT*TK + kI, jT*TJ + jI]
      } } }
      for iI = TI { for jI = TJ { for kI = TK {
        S4: E[iT*TI + iI, jT*TJ + jI] += C[iT*TI + iI, kT*TK + kI] * D[kT*TK + kI, jT*TJ + jI]
      } } }
      for iI = TI { for jI = TJ { for kI = TK {
        S5: G[iT*TI + iI, jT*TJ + jI] += E[iT*TI + iI, kT*TK + kI] * F[kT*TK + kI, jT*TJ + jI]
      } } }
    }
  }
}
`, i)
}

// clusterRows measures what the cluster tier buys on any machine,
// including a single-core one: aggregate cache capacity. The sweep covers
// clusterKeys specs while each replica's response and analysis LRUs hold
// fewer, so one replica thrashes — every request re-runs parse, analyze
// and predict — while each of 4 replicas owns ~keys/4 specs and serves
// them hot after one pass. Both runs go through the router (same hop
// count, same admission) after one identical warm-up pass.
func clusterRows(c *config) ([]Row, error) {
	// The oracle's caches hold the whole sweep; it measures nothing.
	oracle := service.New(service.Config{Workers: 1, CacheEntries: 4 * clusterKeys, AnalysisEntries: 2 * clusterKeys})
	defer oracle.Close()
	script := make([]request, clusterKeys)
	for i := range script {
		body, err := json.Marshal(map[string]any{
			"nest":    sweepNest(i),
			"env":     map[string]int64{"N": 64, "TI": 8, "TJ": 8, "TK": 8},
			"cacheKB": 4,
		})
		if err != nil {
			return nil, err
		}
		want, err := oracle.Compute(context.Background(), "/v1/predict", body)
		if err != nil {
			return nil, fmt.Errorf("direct compute of sweep spec %d: %w", i, err)
		}
		script[i] = request{path: "/v1/predict", body: body, want: want}
	}

	var rows []Row
	for _, n := range []int{1, clusterReplicas} {
		res, err := clusterRun(n, c, script)
		if err != nil {
			return nil, err
		}
		rows = append(rows, loadRows(fmt.Sprintf("replicas-%d", n), res)...)
	}
	return rows, nil
}

// clusterRun starts n single-worker replicas behind a router, each with
// caches smaller than the sweep, and runs the script through it.
func clusterRun(n int, c *config, script []request) (res *loadResult, err error) {
	lc, err := cluster.StartLocal(n, service.Config{
		Workers:         1,
		QueueDepth:      256,
		CacheEntries:    20,
		AnalysisEntries: 16,
	}, cluster.Config{ProbeInterval: 100 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), service.DrainTimeout)
		defer cancel()
		if cerr := lc.Close(ctx); err == nil {
			err = cerr
		}
	}()
	if _, err := (loadOptions{baseURL: lc.URL(), clients: 1, rounds: 1, script: script}).run(); err != nil {
		return nil, err
	}
	return loadOptions{baseURL: lc.URL(), clients: clusterClients, rounds: c.rounds, duration: c.duration, script: script}.run()
}
