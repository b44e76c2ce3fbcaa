// Command cachechar characterizes cache misses for the paper's kernels and
// for user-written loop nests: it prints the symbolic component inventory
// (Table 1), regenerates the predicted-vs-simulated miss tables (Tables 2
// and 3), and evaluates ad-hoc configurations.
//
// Usage:
//
//	cachechar -table 1                # symbolic inventory for tiled matmul
//	cachechar -table 2 -simulate      # Table 2 with exact simulation (minutes)
//	cachechar -table 3                # Table 3, predictions only (instant)
//	cachechar -kernel twoindex -dump-tree
//	cachechar -kernel matmul -n 256 -tiles 32,64,32 -cache-kb 16 -simulate
//	cachechar -kernel fourindex -n 32 -cache-kb 64 -inventory
//	cachechar -kernel matmul -n 256 -tiles 32,64,32 -cache-kb 8,16,32,64 -j 4
//	cachechar -file mynest.loop -D N=256 -D TI=32 -cache-kb 64 -validate
//	cachechar -kernel matmul -n 128 -tiles 16,16,16 -simulate -report run.json
//
// -cache-kb accepts a comma-separated list of capacities; predictions for a
// list are evaluated concurrently (-j workers) through a shared component
// evaluation cache, so the sweep costs little more than a single point. The
// -file format is documented in internal/loopir/parse.go; bind its symbols
// with repeated -D name=value flags. -report writes a RunReport JSON
// artifact (analyze stage timings, eval-cache and simulator counters — see
// README.md, Observability); -debug-addr serves /metrics, /debug/vars and
// /debug/pprof for the duration of the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/loopir"
	"repro/internal/obs"
	"repro/internal/validate"
)

type defineList []string

func (d *defineList) String() string     { return fmt.Sprint(*d) }
func (d *defineList) Set(s string) error { *d = append(*d, s); return nil }

// options collects one invocation's flag values; run takes it by value so
// tests can drive the tool without touching the flag package.
type options struct {
	table      int
	kernel     string
	file       string
	simulate   bool
	doVal      bool
	dump       bool
	inventory  bool
	jsonOut    bool
	n          int64
	tiles      string
	cacheKB    string
	jobs       int
	lineElems  int64
	ways       int64
	defines    []string
	reportPath string
	debugAddr  string
	args       []string // recorded verbatim in the run report
}

func main() {
	var o options
	var defines defineList
	flag.IntVar(&o.table, "table", 0, "regenerate paper table 1, 2 or 3")
	flag.StringVar(&o.kernel, "kernel", "matmul", "kernel: matmul | twoindex | fourindex")
	flag.StringVar(&o.file, "file", "", "analyze a loop nest from a file instead of a built-in kernel")
	flag.BoolVar(&o.simulate, "simulate", false, "also run the exact trace simulation")
	flag.BoolVar(&o.doVal, "validate", false, "per-site predicted-vs-simulated cross-check")
	flag.BoolVar(&o.dump, "dump-tree", false, "print the loop nest")
	flag.BoolVar(&o.inventory, "inventory", false, "print the symbolic component inventory")
	flag.BoolVar(&o.jsonOut, "json", false, "emit machine-readable JSON (ad-hoc and -inventory modes)")
	flag.Int64Var(&o.n, "n", 256, "loop bound for built-in kernels")
	flag.StringVar(&o.tiles, "tiles", "", "comma-separated tile sizes")
	flag.StringVar(&o.cacheKB, "cache-kb", "64", "cache size(s) in KB of doubles, comma-separated")
	flag.IntVar(&o.jobs, "j", runtime.GOMAXPROCS(0), "parallel evaluation workers for capacity sweeps")
	flag.Int64Var(&o.lineElems, "line", 0, "also predict with the spatial model at this line size (elements)")
	flag.Int64Var(&o.ways, "ways", 0, "also predict with the conflict-aware model at this associativity (-line is the line size; 0 = skip)")
	flag.StringVar(&o.reportPath, "report", "", "write a RunReport JSON artifact to this path")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	flag.Var(&defines, "D", "symbol binding name=value for -file nests (repeatable)")
	flag.Parse()
	o.defines = defines
	o.args = os.Args[1:]
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "cachechar:", err)
		os.Exit(1)
	}
}

func parseCacheKBs(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kb, err := strconv.ParseInt(part, 10, 64)
		if err != nil || kb <= 0 {
			return nil, fmt.Errorf("bad -cache-kb value %q", part)
		}
		out = append(out, kb)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -cache-kb list")
	}
	return out, nil
}

func run(w io.Writer, o options) error {
	var m *obs.Metrics
	var rep *obs.RunReport
	if o.reportPath != "" || o.debugAddr != "" {
		m = obs.New()
	}
	if o.reportPath != "" {
		rep = obs.NewRunReport("cachechar", o.args)
	}
	if o.debugAddr != "" {
		srv, err := obs.StartDebugServer(o.debugAddr, m)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(w, "debug server listening on %s\n", srv.Addr)
	}
	finish := func() error {
		if rep == nil {
			return nil
		}
		rep.AddMetrics(m)
		if err := rep.WriteFile(o.reportPath); err != nil {
			return err
		}
		fmt.Fprintf(w, "report written to %s\n", o.reportPath)
		return nil
	}
	analyze := func(nest *loopir.Nest) (*core.Analysis, error) {
		opts := core.DefaultOptions()
		opts.Obs = m
		return core.AnalyzeWithOptions(nest, opts)
	}

	switch o.table {
	case 1:
		nest, _, err := experiments.BuildKernel("matmul", 256, nil)
		if err != nil {
			return err
		}
		a, err := analyze(nest)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Table 1: iteration-space partitions and symbolic stack distances")
		fmt.Fprint(w, a.Table())
		return finish()
	case 2:
		rows, err := experiments.RunTable2(o.simulate)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatMissRows(
			"Table 2: cache miss prediction for the tiled two-index transform", rows))
		return finish()
	case 3:
		rows, err := experiments.RunTable3(o.simulate)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatMissRows(
			"Table 3: cache miss prediction for tiled matrix multiplication", rows))
		return finish()
	case 0:
		// ad-hoc mode below
	default:
		return fmt.Errorf("unknown table %d (want 1, 2 or 3)", o.table)
	}

	kbs, err := parseCacheKBs(o.cacheKB)
	if err != nil {
		return err
	}
	caps := make([]int64, len(kbs))
	for i, kb := range kbs {
		caps[i] = experiments.KB(kb)
	}

	var (
		nest *loopir.Nest
		env  expr.Env
	)
	if o.file != "" {
		defs, derr := experiments.ParseDefines(o.defines)
		if derr != nil {
			return derr
		}
		nest, env, err = experiments.LoadNestFile(o.file, defs)
	} else {
		ts, terr := experiments.ParseTiles(o.tiles)
		if terr != nil {
			return terr
		}
		nest, env, err = experiments.BuildKernel(o.kernel, o.n, ts)
	}
	if err != nil {
		return err
	}
	if o.dump {
		fmt.Fprint(w, loopir.Unparse(nest))
		return finish()
	}
	a, err := analyze(nest)
	if err != nil {
		return err
	}
	if o.inventory {
		if o.jsonOut {
			data, err := a.InventoryJSON()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, string(data))
			return finish()
		}
		fmt.Fprint(w, a.Table())
		return finish()
	}
	if o.doVal {
		cmps, err := validate.RunObserved(a, env, caps, m)
		if err != nil {
			return err
		}
		fmt.Fprint(w, validate.Format(cmps))
		if err := validate.CheckCompulsory(cmps); err != nil {
			return err
		}
		return finish()
	}
	if len(caps) > 1 {
		if o.jsonOut {
			return fmt.Errorf("-json supports a single -cache-kb value")
		}
		if o.lineElems > 0 {
			return fmt.Errorf("-line supports a single -cache-kb value")
		}
		if o.ways > 0 {
			return fmt.Errorf("-ways supports a single -cache-kb value")
		}
		if err := capacitySweep(w, a, nest, env, kbs, caps, o.jobs, o.simulate, m); err != nil {
			return err
		}
		return finish()
	}

	cache := caps[0]
	f := a.SymTab().FrameOf(env)
	rep2, err := a.PredictMissesFrameConfig(f, core.CacheConfig{CapacityElems: cache})
	if err != nil {
		return err
	}
	if o.jsonOut {
		data, err := a.ReportToJSON(env, rep2)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(data))
		return finish()
	}
	fmt.Fprintf(w, "nest %s  env %v  cache %d KB (%d elements)\n", nest.Name, env, kbs[0], cache)
	fmt.Fprintf(w, "accesses  %d\n", rep2.Accesses)
	fmt.Fprintf(w, "predicted %d misses (%.3f%% of accesses)\n",
		rep2.Total, 100*float64(rep2.Total)/float64(rep2.Accesses))
	// Sorted for stable output (map order would shuffle the golden files).
	sites := make([]string, 0, len(rep2.BySite))
	for site := range rep2.BySite {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	for _, site := range sites {
		fmt.Fprintf(w, "  %-8s %12d\n", site, rep2.BySite[site])
	}
	if o.lineElems > 0 {
		lrep, err := a.PredictLineMisses(env, cache, o.lineElems)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "spatial model (%d-element lines): %d misses (%.3f%%)\n",
			o.lineElems, lrep.Total, 100*float64(lrep.Total)/float64(lrep.Accesses))
	}
	if o.ways > 0 {
		cfg := core.CacheConfig{CapacityElems: cache, Ways: o.ways, LineElems: o.lineElems}
		crep, err := a.PredictMissesFrameConfig(f, cfg)
		if err != nil {
			return err
		}
		l := o.lineElems
		if l <= 0 {
			l = 1
		}
		fmt.Fprintf(w, "conflict-aware model (%d-way, %d-element lines): %d misses (%.3f%%)\n",
			o.ways, l, crep.Total, 100*float64(crep.Total)/float64(crep.Accesses))
	}
	if o.simulate {
		cmps, err := validate.RunObserved(a, env, []int64{cache}, m)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "simulated %d misses (rel err %.3f%%)\n",
			cmps[0].SimulatedTotal, 100*cmps[0].RelErr())
	}
	if rep != nil {
		rep.SetExtra("nest", nest.Name)
		rep.SetExtra("cacheKB", kbs[0])
		rep.SetExtra("predictedMisses", rep2.Total)
		rep.SetExtra("accesses", rep2.Accesses)
	}
	return finish()
}

// capacitySweep predicts misses at every capacity concurrently through one
// shared component-evaluation cache: capacities share all environment-
// dependent work, so the sweep recomputes only the capacity comparisons.
func capacitySweep(w io.Writer, a *core.Analysis, nest *loopir.Nest, env expr.Env,
	kbs, caps []int64, jobs int, simulate bool, m *obs.Metrics) error {
	if jobs < 1 {
		jobs = 1
	}
	ec := core.NewEvalCacheWithMetrics(a, m)
	reps := make([]*core.MissReport, len(caps))
	errs := make([]error, len(caps))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for wkr := 0; wkr < jobs; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Frames are single-goroutine scratch; each worker binds its own.
			f := a.SymTab().FrameOf(env)
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(caps) {
					return
				}
				reps[i], errs[i] = ec.PredictMissesFrameConfig(f, core.CacheConfig{CapacityElems: caps[i]})
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var sims map[int64]int64
	if simulate {
		cmps, err := validate.RunObserved(a, env, caps, m)
		if err != nil {
			return err
		}
		sims = map[int64]int64{}
		for _, c := range cmps {
			sims[c.CacheElems] = c.SimulatedTotal
		}
	}
	fmt.Fprintf(w, "nest %s  env %v  (%d workers)\n", nest.Name, env, jobs)
	fmt.Fprintf(w, "accesses  %d\n", reps[0].Accesses)
	header := fmt.Sprintf("%-10s %-12s %-14s %-10s", "cache-kb", "elements", "predicted", "miss-%")
	if simulate {
		header += fmt.Sprintf(" %-14s", "simulated")
	}
	fmt.Fprintln(w, header)
	for i, cache := range caps {
		row := fmt.Sprintf("%-10d %-12d %-14d %-10.3f",
			kbs[i], cache, reps[i].Total,
			100*float64(reps[i].Total)/float64(reps[i].Accesses))
		if simulate {
			row += fmt.Sprintf(" %-14d", sims[cache])
		}
		fmt.Fprintln(w, row)
	}
	s := ec.Stats()
	fmt.Fprintf(w, "component evaluations: %d of %d (cache hit rate %.1f%%)\n",
		s.Computed, s.Lookups, 100*s.HitRate())
	sortSites(w, reps[len(reps)-1])
	return nil
}

// sortSites prints the per-site breakdown at the largest capacity in a
// stable order.
func sortSites(w io.Writer, rep *core.MissReport) {
	sites := make([]string, 0, len(rep.BySite))
	for s := range rep.BySite {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	fmt.Fprintf(w, "per-site misses at %d elements:\n", rep.CacheElems)
	for _, s := range sites {
		fmt.Fprintf(w, "  %-8s %12d\n", s, rep.BySite[s])
	}
}
