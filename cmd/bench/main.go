// Command bench measures the library layers behind the paper's two claims
// — the stack-distance model agrees with simulation at a fraction of its
// cost, and model-driven search finds better transformations — and
// enforces the regression gates on them. Every measurement is a row of one
// schema; the rows under one host/config block make up BENCH.json.
//
// Layers (-layer, a comma-separated subset; default all): sim (simulation
// engines and the validate sweep), assoc (set-associative model accuracy
// and cost), eval (compiled evaluation, tile search), opt (joint vs
// tile-only plan search), serve (closed-loop clients against an
// in-process analysisd) and cluster (1 vs 4 replicas behind the router).
// Every serve and cluster response is verified byte-for-byte against the
// direct library computation, and any nonzero failures row fails the run.
//
// -benchtime (testing syntax) sets each micro-benchmark's duration; each
// load run lasts that long too, or with Nx every client walks its script N
// times.
//
// -smoke measures only the rows the gates read, at a fixed short size,
// writes nothing, and fails unless every selected layer's gate holds (see
// gates). The end-to-end request path is measured by perfbench/, declared
// by BENCHMARK.json.
//
// Usage:
//
//	bench [-layer sim,assoc,eval,opt,serve,cluster] [-o BENCH.json] [-benchtime 2s]
//	bench -smoke [-layer ...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Row is one measurement. Value is in Unit; the remaining fields are the
// testing.Benchmark figures behind it, zero for rows measured otherwise.
type Row struct {
	Layer       string  `json:"layer"`
	Name        string  `json:"name"`
	Unit        string  `json:"unit"`
	Value       float64 `json:"value"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// failuresUnit marks a row counting responses or results that failed
// verification. Any nonzero failures row fails the run.
const failuresUnit = "failures"

// artifact is the BENCH.json schema.
type artifact struct {
	Generated string `json:"generated"`
	Host      struct {
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		NumCPU     int    `json:"num_cpu"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
	} `json:"host"`
	Config struct {
		Layers    []string `json:"layers"`
		Benchtime string   `json:"benchtime"`
	} `json:"config"`
	Rows []Row `json:"rows"`
}

// config is what every layer reads.
type config struct {
	smoke bool
	// rounds or duration is the load runs' stopping rule: -benchtime's,
	// or smokeRun under -smoke.
	rounds   int
	duration time.Duration
}

// smokeRun is how long each load run of a -smoke pass lasts.
const smokeRun = time.Second

// layer is one entry of the measured-layer table: its rows, measured.
type layer struct {
	name string
	run  func(*config) ([]Row, error)
}

// layers is the table of measured layers, in run order.
var layers = []layer{
	{"sim", simRows},
	{"assoc", assocRows},
	{"eval", evalRows},
	{"opt", optRows},
	{"serve", serveRows},
	{"cluster", clusterRows},
}

// measure benchmarks op under -benchtime. The row's value is ns/op divided
// by perOp, the op's size in the row's unit (accesses, expressions, 1e6
// for milliseconds).
func measure(name, unit string, perOp float64, op func() error) (Row, error) {
	var err error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N && err == nil; i++ {
			err = op()
		}
	})
	return Row{
		Name:        name,
		Unit:        unit,
		Value:       float64(r.NsPerOp()) / perOp,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}, err
}

// parseBenchtime splits a testing -benchtime value into the load runs'
// stopping rule: Nx is N rounds per client, anything else a duration.
func parseBenchtime(s string) (rounds int, d time.Duration, err error) {
	if n, ok := strings.CutSuffix(s, "x"); ok {
		rounds, err = strconv.Atoi(n)
		if err == nil && rounds <= 0 {
			err = fmt.Errorf("-benchtime %q: need at least one round", s)
		}
		return rounds, 0, err
	}
	d, err = time.ParseDuration(s)
	if err == nil && d <= 0 {
		err = fmt.Errorf("-benchtime %q: need a positive duration", s)
	}
	return 0, d, err
}

func main() {
	layerList := flag.String("layer", "sim,assoc,eval,opt,serve,cluster", "comma-separated layers to run")
	out := flag.String("o", "BENCH.json", "artifact path (empty = don't write)")
	benchtime := flag.String("benchtime", "2s", "per-measurement time, testing -benchtime syntax (Nx or a duration)")
	smoke := flag.Bool("smoke", false, "measure only the gate rows, enforce the gates, write nothing")
	flag.Parse()
	if err := run(strings.Split(*layerList, ","), *out, *benchtime, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(names []string, out, benchtime string, smoke bool) error {
	c := &config{smoke: smoke}
	var err error
	if c.rounds, c.duration, err = parseBenchtime(benchtime); err != nil {
		return err
	}
	if smoke {
		// One run per micro-benchmark: the bounds sit orders of magnitude
		// under the measured gaps, so a single run trips on a real
		// regression and not on noise.
		benchtime = "1x"
		c.rounds, c.duration = 0, smokeRun
	}
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return err
	}

	selected := map[string]bool{}
	for _, n := range names {
		n = strings.TrimSpace(n)
		if !slices.ContainsFunc(layers, func(l layer) bool { return l.name == n }) {
			return fmt.Errorf("unknown layer %q", n)
		}
		selected[n] = true
	}

	var a artifact
	var rows []Row
	for _, l := range layers {
		lgates := gatesOf(l.name)
		if !selected[l.name] || smoke && len(lgates) == 0 {
			continue
		}
		a.Config.Layers = append(a.Config.Layers, l.name)
		fmt.Fprintf(os.Stderr, "measuring %s ...\n", l.name)
		lrows, err := l.run(c)
		if err != nil {
			return fmt.Errorf("%s: %w", l.name, err)
		}
		for i := range lrows {
			lrows[i].Layer = l.name
			fmt.Printf("%-8s %-36s %14.6g %s\n", l.name, lrows[i].Name, lrows[i].Value, lrows[i].Unit)
		}
		rows = append(rows, lrows...)
		if !smoke {
			continue
		}
		for _, g := range lgates {
			ratio, err := g.check(lrows)
			if err != nil {
				return fmt.Errorf("smoke: %w", err)
			}
			fmt.Printf("gate ok: %s (measured %.3g×)\n", g, ratio)
		}
	}
	if err := failures(rows); err != nil {
		return err
	}
	if smoke || out == "" {
		return nil
	}

	a.Generated = time.Now().UTC().Format(time.RFC3339)
	a.Host.GOOS = runtime.GOOS
	a.Host.GOARCH = runtime.GOARCH
	a.Host.NumCPU = runtime.NumCPU()
	a.Host.GOMAXPROCS = runtime.GOMAXPROCS(0)
	a.Host.GoVersion = runtime.Version()
	a.Config.Benchtime = benchtime
	a.Rows = rows
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}
