package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/loopir"
	"repro/internal/nestgen"
	"repro/internal/service"
)

// defaultCacheEntries is the service's default response-cache capacity.
const defaultCacheEntries = 256

func TestSameSeedSameBytes(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7, 64)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(name, 7, 64)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(name, 8, 64)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRequests(a.Stream, b.Stream) || !sameRequests(a.Prime, b.Prime) {
			t.Errorf("%s: seed 7 generated different requests twice", name)
		}
		if sameRequests(a.Stream, c.Stream) {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", name)
		}
	}
}

func sameRequests(a, b []request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Path != b[i].Path || a[i].Items != b[i].Items || !bytes.Equal(a[i].Body, b[i].Body) {
			return false
		}
	}
	return true
}

// itemKeys returns the response-cache keys a request occupies.
func itemKeys(t *testing.T, q request) []string {
	t.Helper()
	if q.Path != "/v1/batch" {
		k, err := service.CanonicalKeyForRequest(q.Path, q.Body)
		if err != nil {
			t.Fatalf("%s %s: %v", q.Path, q.Body, err)
		}
		return []string{k}
	}
	exp, err := service.ExpandBatch(q.Body, maxBatchItems)
	if err != nil {
		t.Fatalf("batch %s: %v", q.Body, err)
	}
	var keys []string
	for _, it := range exp.Items {
		if it.Err != nil {
			t.Fatalf("batch item: %v", it.Err)
		}
		keys = append(keys, it.Key)
	}
	if len(keys) != q.Items {
		t.Fatalf("batch expands to %d items, request says %d", len(keys), q.Items)
	}
	return keys
}

func TestHotRepeatFitsDefaultCache(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		w, err := generate("hot-repeat", seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		keys := map[string]bool{}
		for _, q := range w.Stream {
			for _, k := range itemKeys(t, q) {
				keys[k] = true
			}
		}
		// Well under the capacity, so LRU order never evicts a key the
		// cycle is about to reuse.
		if len(keys) > defaultCacheEntries*2/3 {
			t.Errorf("seed %d: %d distinct keys, want at most %d", seed, len(keys), defaultCacheEntries*2/3)
		}
		primed := map[string]bool{}
		for _, q := range w.Prime {
			primed[q.Path+string(q.Body)] = true
		}
		for _, q := range w.Stream {
			if !primed[q.Path+string(q.Body)] {
				t.Fatalf("seed %d: stream request %s %s is not primed", seed, q.Path, q.Body)
			}
		}
	}
}

// TestStreamKeysNeverRepeat checks that no response-cache key of a
// never-seen workload repeats within its stream or matches a priming key.
func TestStreamKeysNeverRepeat(t *testing.T) {
	for _, name := range []string{"fresh-sweep", "cold-nests", "search"} {
		w, err := generate(name, 3, 600)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, q := range w.Prime {
			for _, k := range itemKeys(t, q) {
				seen[k] = true
			}
		}
		for i, q := range w.Stream {
			for _, k := range itemKeys(t, q) {
				if seen[k] {
					t.Fatalf("%s: request %d repeats a key", name, i)
				}
				seen[k] = true
			}
		}
	}
}

func TestColdNestsStructurallyDistinct(t *testing.T) {
	w, err := generate("cold-nests", 3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[string]bool{}
	for i, q := range w.Stream {
		var b body
		if err := json.Unmarshal(q.Body, &b); err != nil {
			t.Fatal(err)
		}
		k := structKey(b.Nest)
		if shapes[k] {
			t.Fatalf("request %d repeats a nest shape up to renaming", i)
		}
		shapes[k] = true
	}
}

func TestStructKeyIgnoresNames(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		nest, _, err := nestgen.Generate(r, i, nestgen.Config{Imperfect: i%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		src := loopir.Unparse(nest)
		renamed := src
		for _, rn := range [][2]string{{"A0", "Zed"}, {"N", "Bound"}, {"S1", "Lbl"}} {
			renamed = string(bytes.ReplaceAll([]byte(renamed), []byte(rn[0]), []byte(rn[1])))
		}
		parsed, err := loopir.Parse(renamed)
		if err != nil {
			t.Fatalf("renamed nest does not parse: %v\n%s", err, renamed)
		}
		parsed.Name = "other"
		if structKey(loopir.Unparse(parsed)) != structKey(src) {
			t.Fatalf("renaming changed the shape key:\n%s\n%s", src, loopir.Unparse(parsed))
		}
	}
	a, _, _ := nestgen.Generate(rand.New(rand.NewSource(1)), 0, nestgen.Config{})
	b, _, _ := nestgen.Generate(rand.New(rand.NewSource(2)), 0, nestgen.Config{})
	if sa, sb := loopir.Unparse(a), loopir.Unparse(b); sa != sb && structKey(sa) == structKey(sb) {
		t.Fatalf("different shapes share a key:\n%s\n%s", sa, sb)
	}
}

// TestRequestsSucceed computes the start of every workload in-process: no
// generated request may fail.
func TestRequestsSucceed(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close()
	for _, name := range workloadNames {
		w, err := generate(name, 5, 48)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range append(w.Prime, w.Stream...) {
			if _, err := svc.Compute(context.Background(), q.Path, q.Body); err != nil {
				t.Errorf("%s: %s %s: %v", name, q.Path, q.Body, err)
			}
		}
	}
}
