// Command perfbench is the layered benchmark of the analysisd service.
//
// Timed mode (-trace 0) starts a fresh analysisd child, primes it, drives
// one workload closed-loop over two keep-alive connections for -seconds,
// byte-verifies every response against an in-process service.Service, and
// prints the end-to-end metrics. Traced mode (-trace 1) replays the same
// workload in-process with spans around calls into each layer's public
// functions and prints the per-layer metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// See README.md in this directory for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: hot-repeat, fresh-sweep, cold-nests or search")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 10, "length of the measured window")
		traced  = flag.Int("trace", 0, "0: timed end-to-end run; 1: traced per-layer run")
		bin     = flag.String("server", ".bench_build/bin/analysisd", "analysisd binary")
		spans   = flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *bin, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced int, bin, spans string) error {
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var res *result
	var err error
	switch traced {
	case 0:
		res, err = timed(name, seed, seconds, bin)
	case 1:
		res, err = tracedRun(name, seed, seconds, bin, spans)
	default:
		return fmt.Errorf("-trace must be 0 or 1, got %d", traced)
	}
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
