package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/loopir"
	"repro/internal/nestgen"
)

// request is one HTTP call of a workload.
type request struct {
	Path  string
	Body  []byte
	Items int // predictions the request asks for: 1, or a batch's row count
}

// workload is a generated request stream. Prime is sent to every freshly
// started server during set-up; Stream is the timed traffic. A cyclic
// workload repeats Stream; the others send each request at most once.
type workload struct {
	Name   string
	Prime  []request
	Stream []request
	Cyclic bool
}

var workloadNames = []string{"hot-repeat", "fresh-sweep", "cold-nests", "search"}

// maxBatchItems is the service's default cap on the items of one batch.
const maxBatchItems = 256

// generate builds a workload from its seed. Non-cyclic workloads get n
// stream requests; the same (name, seed, n) always yields the same bytes.
func generate(name string, seed int64, n int) (*workload, error) {
	r := rand.New(rand.NewSource(seed))
	switch name {
	case "hot-repeat":
		return hotRepeat(r), nil
	case "fresh-sweep":
		return freshSweep(r, n), nil
	case "cold-nests":
		return coldNests(r, n)
	case "search":
		return search(r, n), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames, ", "))
}

// body is the union of the request fields the workloads use; empty fields
// are omitted, so each endpoint sees only its own.
type body struct {
	Kernel      string           `json:"kernel,omitempty"`
	N           int64            `json:"n,omitempty"`
	Tiles       []int64          `json:"tiles,omitempty"`
	Nest        string           `json:"nest,omitempty"`
	Env         map[string]int64 `json:"env,omitempty"`
	CacheElems  int64            `json:"cacheElems,omitempty"`
	CacheKB     int64            `json:"cacheKB,omitempty"`
	Ways        int64            `json:"ways,omitempty"`
	Line        int64            `json:"line,omitempty"`
	Dims        any              `json:"dims,omitempty"`
	Sets        [][]int64        `json:"sets,omitempty"`
	MaxVariants int              `json:"maxVariants,omitempty"`
}

// geom is an optional set-associative geometry; the zero value is the
// fully-associative model.
type geom struct{ ways, line int64 }

func (b body) with(g geom) body {
	b.Ways, b.Line = g.ways, g.line
	return b
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps are marshalled
	}
	return data
}

func single(path string, b body) request {
	return request{Path: path, Body: mustJSON(b), Items: 1}
}

func sweep(b body) request {
	return request{Path: "/v1/batch", Body: mustJSON(map[string]body{"candidates": b}), Items: len(b.Sets)}
}

// kernelDims are the tile symbols of the two tiled kernels the sweeps and
// searches use, with a base tiling that divides every generated bound.
var kernelDims = map[string][]string{
	"matmul":   {"TI", "TJ", "TK"},
	"twoindex": {"TI", "TJ", "TM", "TN"},
}

func baseTiles(kernel string) []int64 {
	t := make([]int64, len(kernelDims[kernel]))
	for i := range t {
		t[i] = 8
	}
	return t
}

// tileRows draws k distinct tile assignments over d dims from the powers
// of two 4..64, which divide every bound the sweeps use.
func tileRows(r *rand.Rand, d, k int) [][]int64 {
	seen := map[string]bool{}
	var rows [][]int64
	for len(rows) < k {
		row := make([]int64, d)
		for i := range row {
			row[i] = 4 << r.Intn(5)
		}
		if key := fmt.Sprint(row); !seen[key] {
			seen[key] = true
			rows = append(rows, row)
		}
	}
	return rows
}

func pick[T any](r *rand.Rand, xs ...T) T { return xs[r.Intn(len(xs))] }

func randomGeom(r *rand.Rand) geom {
	return geom{ways: pick[int64](r, 2, 4, 8), line: pick[int64](r, 4, 8)}
}

// hotRepeat is a small fixed request set — four 32-row candidate sweeps,
// four predicts and two analyzes, 134 distinct response-cache keys — that
// the server holds entirely in its 256-entry response cache once primed,
// sent over and over.
func hotRepeat(r *rand.Rand) *workload {
	var distinct []request
	for _, s := range []struct {
		kernel string
		g      geom
	}{{"matmul", geom{}}, {"matmul", geom{4, 8}}, {"twoindex", geom{}}, {"twoindex", geom{8, 4}}} {
		dims := kernelDims[s.kernel]
		n := 256 * (1 + r.Int63n(8))
		kb := int64(8 << r.Intn(6))
		distinct = append(distinct, sweep(body{
			Kernel: s.kernel, N: n, Tiles: baseTiles(s.kernel), CacheKB: kb,
			Dims: dims, Sets: tileRows(r, len(dims), 32),
		}.with(s.g)))
		// An odd capacity keeps the single predict's key apart from every
		// sweep row's.
		distinct = append(distinct, single("/v1/predict", body{
			Kernel: s.kernel, N: n, Tiles: tileRows(r, len(dims), 1)[0], CacheKB: kb + 1,
		}.with(s.g)))
	}
	for _, k := range []string{"matmul", "twoindex"} {
		distinct = append(distinct, single("/v1/analyze", body{Kernel: k, N: 256}))
	}
	// The cycle sends every sweep four times and every single request once,
	// so that sweeps, whose cost varies least between runs, take most of
	// the time.
	var stream []request
	for _, q := range distinct {
		reps := 1
		if q.Path == "/v1/batch" {
			reps = 4
		}
		for k := 0; k < reps; k++ {
			stream = append(stream, q)
		}
	}
	r.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	return &workload{Name: "hot-repeat", Prime: distinct, Stream: stream, Cyclic: true}
}

// freshBinding draws a (kernel, n, cacheKB, geometry) binding not drawn
// before; seen carries the bindings across calls.
func freshBinding(r *rand.Rand, seen map[string]bool, kernel string, g geom) (n, kb int64) {
	for {
		n = 256 + 64*r.Int63n(61) // 256..4096, divisible by every tile
		kb = 4 + r.Int63n(2045)
		key := fmt.Sprint(kernel, n, kb, g)
		if !seen[key] {
			seen[key] = true
			return n, kb
		}
	}
}

// freshSweep alternates matmul and two-index 32-row sweeps, every second
// pair with a set-associative geometry, each at a base binding never drawn
// before: every row misses the response cache, while the two nests stay in
// the analysis cache the priming pass filled.
func freshSweep(r *rand.Rand, count int) *workload {
	w := &workload{Name: "fresh-sweep"}
	for _, k := range []string{"matmul", "twoindex"} {
		w.Prime = append(w.Prime, single("/v1/predict", body{Kernel: k, N: 64, Tiles: baseTiles(k), CacheKB: 1}))
	}
	seen := map[string]bool{}
	for i := 0; i < count; i++ {
		kernel := "matmul"
		if i%2 == 1 {
			kernel = "twoindex"
		}
		var g geom
		if (i/2)%2 == 1 {
			g = randomGeom(r)
		}
		n, kb := freshBinding(r, seen, kernel, g)
		dims := kernelDims[kernel]
		w.Stream = append(w.Stream, sweep(body{
			Kernel: kernel, N: n, Tiles: baseTiles(kernel), CacheKB: kb,
			Dims: dims, Sets: tileRows(r, len(dims), 32),
		}.with(g)))
	}
	return w
}

// search sends, in every group of four requests, tile searches over tiled
// matmul and two-index and joint plan searches over the unfused two-index
// chain and naive matmul; every second group uses a set-associative
// geometry, and every binding is one never drawn before. The first three
// cost 2–4 ms in-process and the last about 10 ms, so the median falls
// inside the light mode and p90 inside the heavy one, away from the gap
// between them.
func search(r *rand.Rand, count int) *workload {
	w := &workload{Name: "search"}
	for _, k := range []string{"matmul", "twoindex"} {
		w.Prime = append(w.Prime, single("/v1/tilesearch", searchBody(k, 64, 1)))
	}
	seen := map[string]bool{}
	for i := 0; i < count; i++ {
		var g geom
		if (i/4)%2 == 1 {
			g = randomGeom(r)
		}
		kernel := []string{"matmul", "twoindex", "twoindexchain", "matmul-naive"}[i%4]
		n, kb := freshBinding(r, seen, kernel, g)
		if i%4 < 2 {
			w.Stream = append(w.Stream, single("/v1/tilesearch", searchBody(kernel, n, kb).with(g)))
		} else {
			w.Stream = append(w.Stream, single("/v1/optimize", body{
				Kernel: kernel, N: n, CacheKB: kb, MaxVariants: optimizeVariants,
			}.with(g)))
		}
	}
	return w
}

// optimizeVariants caps the structural variants one /v1/optimize scores.
const optimizeVariants = 3

// searchDimMax bounds each searched tile size per kernel, so that a tile
// search costs a few milliseconds on either kernel.
var searchDimMax = map[string]int64{"matmul": 64, "twoindex": 16}

func searchBody(kernel string, n, kb int64) body {
	dims := map[string]int64{}
	for _, d := range kernelDims[kernel] {
		dims[d] = searchDimMax[kernel]
	}
	return body{Kernel: kernel, N: n, Tiles: baseTiles(kernel), CacheKB: kb, Dims: dims}
}

// coldNests draws structurally distinct inline nests: nestgen's perfect,
// tiled and imperfect shapes, plus tiled-and-permuted variants (legal
// loopir plans) of matmul with drawn array layouts and of generated perfect
// nests, which are the multi-millisecond analyses. Every fourth request
// asks for a set-associative geometry. No two nests are equal up to a
// renaming of their identifiers, so every request is a new analysis.
func coldNests(r *rand.Rand, count int) (*workload, error) {
	w := &workload{Name: "cold-nests"}
	seen := map[string]bool{}
	for i := 0; i < count; i++ {
		var src string
		var env expr.Env
		for attempt := 0; ; attempt++ {
			if attempt == 1000 {
				return nil, fmt.Errorf("cold-nests: no new nest shape after %d draws at request %d", attempt, i)
			}
			nest, e, err := coldNest(r, i)
			if err != nil {
				continue // an illegal plan draw; draw again
			}
			nest.Name = "cold"
			src, env = loopir.Unparse(nest), e
			if k := structKey(src); !seen[k] {
				seen[k] = true
				break
			}
		}
		b := body{Nest: src, Env: env, CacheElems: 8 * (1 + r.Int63n(64))}
		if i%4 == 3 {
			b = b.with(geom{2, 4})
		}
		w.Stream = append(w.Stream, single("/v1/predict", b))
	}
	return w, nil
}

// coldNest draws request i's nest: one class per slot of a fixed cycle, so
// every seed gets the same class mix.
func coldNest(r *rand.Rand, i int) (*loopir.Nest, expr.Env, error) {
	switch i % 16 {
	case 0:
		return permutedTiledMatmul(r)
	case 1, 2, 3:
		return permutedTiledGenerated(r, i)
	case 4, 5, 6, 7:
		return nestgen.Generate(r, i, nestgen.Config{Tiled: true, MaxArrays: 6})
	case 8, 9, 10, 11:
		return nestgen.Generate(r, i, nestgen.Config{})
	}
	return nestgen.Generate(r, i, nestgen.Config{Imperfect: true})
}

// permutedTiledMatmul builds matmul with each array's layout drawn as
// row- or column-major, tiles it and permutes its six loops into a random
// legal order.
func permutedTiledMatmul(r *rand.Rand) (*loopir.Nest, expr.Env, error) {
	sub := func(a, b string) []loopir.Subscript {
		if r.Intn(2) == 1 {
			a, b = b, a
		}
		return []loopir.Subscript{loopir.Idx(a), loopir.Idx(b)}
	}
	n := expr.Var("N")
	nest, err := loopir.BuildPerfect(loopir.PerfectNestSpec{
		Name: "matmul",
		Arrays: []*loopir.Array{
			{Name: "A", Dims: []*expr.Expr{n, n}},
			{Name: "B", Dims: []*expr.Expr{n, n}},
			{Name: "C", Dims: []*expr.Expr{n, n}},
		},
		Indices: []string{"i", "j", "k"},
		Trips:   []*expr.Expr{n, n, n},
		Stmt: &loopir.Stmt{Label: "S1", Refs: []loopir.Ref{
			{Array: "A", Mode: loopir.Read, Subs: sub("i", "j")},
			{Array: "B", Mode: loopir.Read, Subs: sub("j", "k")},
			{Array: "C", Mode: loopir.Update, Subs: sub("i", "k")},
		}},
	})
	if err != nil {
		return nil, nil, err
	}
	loops := []string{"iT", "jT", "kT", "iI", "jI", "kI"}
	r.Shuffle(len(loops), func(i, j int) { loops[i], loops[j] = loops[j], loops[i] })
	tiled, err := loopir.ApplyPlan(nest, loopir.Plan{{Op: "tile"}, {Op: "permute", Order: loops}})
	if err != nil {
		return nil, nil, err
	}
	env := expr.Env{"N": 8 * (2 + r.Int63n(3))}
	for _, t := range []string{"TI", "TJ", "TK"} {
		env[t] = pick[int64](r, 2, 4, 8)
	}
	return tiled, env, nil
}

// permutedTiledGenerated tiles a generated 2–3 deep perfect nest and
// permutes all of its loops into a random legal order, with tile sizes
// dividing the bounds.
func permutedTiledGenerated(r *rand.Rand, id int) (*loopir.Nest, expr.Env, error) {
	nest, _, err := nestgen.Generate(r, id, nestgen.Config{MaxDepth: 3})
	if err != nil {
		return nil, nil, err
	}
	tiled, specs, err := loopir.TileAll(nest)
	if err != nil {
		return nil, nil, err
	}
	var loops []string
	env := expr.Env{}
	for _, s := range specs {
		loops = append(loops, s.TileIdx, s.IntraIdx)
		t := 2 + r.Int63n(2)
		env[s.TileVar] = t
		env[s.Bound.String()] = t * (2 + r.Int63n(3))
	}
	r.Shuffle(len(loops), func(i, j int) { loops[i], loops[j] = loops[j], loops[i] })
	permuted, err := loopir.ApplyPlan(tiled, loopir.Plan{{Op: "permute", Order: loops}})
	if err != nil {
		return nil, nil, err
	}
	return permuted, env, nil
}

// structKey identifies a nest's text up to a consistent renaming of its
// identifiers and its name: identifiers are numbered in order of first use
// in the loop tree, then the array declarations are renamed and sorted.
// Two nests that differ only by names share a key.
func structKey(src string) string {
	lines := strings.Split(src, "\n")
	var decls, tree []string
	for _, l := range lines[1:] { // lines[0] is "nest <name>"
		if strings.HasPrefix(l, "array ") {
			decls = append(decls, l)
		} else {
			tree = append(tree, l)
		}
	}
	names := map[string]string{"for": "for", "ceil": "ceil", "array": "array"}
	rename := func(l string) string {
		var b strings.Builder
		for i := 0; i < len(l); {
			j := i
			for j < len(l) && isIdent(l[j], j > i) {
				j++
			}
			if j == i {
				b.WriteByte(l[i])
				i++
				continue
			}
			id := l[i:j]
			nm, ok := names[id]
			if !ok {
				nm = fmt.Sprintf("v%d", len(names))
				names[id] = nm
			}
			b.WriteString(nm)
			i = j
		}
		return b.String()
	}
	for i, l := range tree {
		tree[i] = rename(l)
	}
	for i, l := range decls {
		decls[i] = rename(l)
	}
	sort.Strings(decls)
	return strings.Join(decls, "\n") + "\n" + strings.Join(tree, "\n")
}

func isIdent(c byte, inner bool) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || (inner && '0' <= c && c <= '9')
}
