package service

import (
	"testing"

	"mediumgrain/internal/corpus"
	"mediumgrain/internal/gen"
)

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2)
	r := func(k string) *CachedResult { return &CachedResult{Key: k} }
	if ev := c.Put("a", r("a")); ev != "" {
		t.Fatalf("unexpected eviction %q", ev)
	}
	c.Put("b", r("b"))
	c.Get("a") // promote a; b is now oldest
	if ev := c.Put("c", r("c")); ev != "b" {
		t.Fatalf("evicted %q, want b", ev)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("evicted entry still present")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("promoted entry evicted")
	}
	// Refresh of an existing key must not evict.
	if ev := c.Put("a", r("a2")); ev != "" {
		t.Fatalf("refresh evicted %q", ev)
	}
	if got, _ := c.Get("a"); got.Key != "a2" {
		t.Fatal("refresh did not replace the value")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
}

func TestMatrixHashIsContentAddressed(t *testing.T) {
	a := gen.Laplacian2D(8, 8)
	b := gen.Laplacian2D(8, 8)
	if MatrixHash(a) != MatrixHash(b) {
		t.Fatal("equal patterns must hash equally")
	}
	cpy := a.Clone()
	if MatrixHash(cpy) != MatrixHash(a) {
		t.Fatal("clone must hash equally")
	}
	d := gen.Laplacian2D(8, 9)
	if MatrixHash(d) == MatrixHash(a) {
		t.Fatal("different patterns must hash differently")
	}
	// Values are ignored: pattern-only vs valued same structure.
	v := a.Clone()
	v.Val = make([]float64, v.NNZ())
	for i := range v.Val {
		v.Val[i] = float64(i)
	}
	if MatrixHash(v) != MatrixHash(a) {
		t.Fatal("values must not affect the content address")
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	in := corpus.Build(corpus.DefaultOptions())
	h := MatrixHash(in[0].A)
	base := CacheKey(h, 4, "MG", 42, 0.03, false, false, false, 1, 0)
	variants := []string{
		CacheKey(h, 8, "MG", 42, 0.03, false, false, false, 1, 0),
		CacheKey(h, 4, "FG", 42, 0.03, false, false, false, 1, 0),
		CacheKey(h, 4, "MG", 43, 0.03, false, false, false, 1, 0),
		CacheKey(h, 4, "MG", 42, 0.1, false, false, false, 1, 0),
		CacheKey(h, 4, "MG", 42, 0.03, true, false, false, 1, 0),
		CacheKey(h, 4, "MG", 42, 0.03, false, true, false, 1, 0),
		CacheKey(h, 4, "MG", 42, 0.03, false, false, true, 1, 0),
		CacheKey(MatrixHash(in[1].A), 4, "MG", 42, 0.03, false, false, false, 1, 0),
		CacheKey(h, 4, "MG", 42, 0.03, false, false, false, 8, 0),
		CacheKey(h, 4, "MG", 42, 0.03, false, false, false, 8, 500),
	}
	seen := map[string]bool{base: true}
	for i, v := range variants {
		if seen[v] {
			t.Fatalf("variant %d collided", i)
		}
		seen[v] = true
	}
	if base != CacheKey(h, 4, "MG", 42, 0.03, false, false, false, 1, 0) {
		t.Fatal("key not deterministic")
	}
}
