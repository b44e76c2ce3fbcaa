package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// TestClosedLoopByteIdentical is the serving acceptance criterion run as a
// unit test: 32 concurrent closed-loop clients against a live server, every
// response verified byte-for-byte against the direct library computation.
// A server that answers an error status must not pass that verification.
func TestClosedLoopByteIdentical(t *testing.T) {
	svc := service.New(service.Config{Obs: obs.New(), QueueDepth: 128})
	sv, err := service.Serve("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := sv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()

	bodies := []struct{ path, body string }{
		{"/v1/predict", `{"kernel":"matmul","n":64,"tiles":[8,8,8],"cacheKB":64}`},
		{"/v1/predict", `{"kernel":"matmul","n":64,"tiles":[16,16,16],"cacheKB":64}`},
		{"/v1/analyze", `{"kernel":"matmul","n":64,"tiles":[8,8,8]}`},
		{"/v1/simulate", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"watchKB":[1,4]}`},
	}
	var script []request
	for _, b := range bodies {
		want, err := svc.Compute(context.Background(), b.path, []byte(b.body))
		if err != nil {
			t.Fatalf("direct compute %s: %v", b.path, err)
		}
		script = append(script, request{path: b.path, body: []byte(b.body), want: want})
	}

	const clients, rounds = 32, 5
	res, err := loadOptions{baseURL: "http://" + sv.Addr(), clients: clients, rounds: rounds, script: script}.run()
	if err != nil {
		t.Fatal(err)
	}
	wantReqs := int64(clients * rounds * len(script))
	if res.requests+res.errors != wantReqs {
		t.Errorf("requests %d + errors %d, want %d total", res.requests, res.errors, wantReqs)
	}
	if res.errors != 0 {
		t.Errorf("%d transport errors", res.errors)
	}
	if res.items != wantReqs {
		t.Errorf("%d OKs, want %d", res.items, wantReqs)
	}
	if res.mismatches != 0 || res.failed() != 0 {
		t.Fatalf("%d responses differed from the direct library call", res.mismatches)
	}
	if res.verified != wantReqs {
		t.Errorf("verified %d responses, want %d", res.verified, wantReqs)
	}
	p50, p99 := quantile(res.latencies, 0.5), quantile(res.latencies, 0.99)
	if int64(len(res.latencies)) != wantReqs || p50 <= 0 || p99 < p50 {
		t.Errorf("implausible latencies: %d samples, p50 %v, p99 %v", len(res.latencies), p50, p99)
	}

	t.Run("error status", func(t *testing.T) {
		unavailable := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusServiceUnavailable)
		}))
		defer unavailable.Close()
		res, err := loadOptions{baseURL: unavailable.URL, clients: 1, rounds: 10, script: script[:1]}.run()
		if err != nil {
			t.Fatal(err)
		}
		if res.requests != 10 || res.items != 0 || res.mismatches != 10 || res.failed() != 10 {
			t.Fatalf("10 503s to verified requests: %d responses, %d OK items, %d mismatches, %d failed",
				res.requests, res.items, res.mismatches, res.failed())
		}
		if rows := loadRows("down", res); failures(rows) == nil {
			t.Fatalf("rows %+v pass the failures check", rows)
		}
	})
}

// TestOptionsValidation pins the stopping-rule contract.
func TestOptionsValidation(t *testing.T) {
	script := []request{{path: "/healthz"}}
	for _, o := range []loadOptions{
		{clients: 0, rounds: 1, script: script},
		{clients: 1, script: script},
		{clients: 1, rounds: 1, duration: time.Second, script: script},
		{clients: 1, rounds: 1},
	} {
		if _, err := o.run(); err == nil {
			t.Errorf("options %+v: want error", o)
		}
	}
}
