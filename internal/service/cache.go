package service

import (
	"container/list"
	"sort"
	"sync"

	"mediumgrain/internal/spmv"
)

// CachedResult is a completed partitioning addressed by its content key:
// everything needed to answer a repeat submission without recomputing,
// and everything persisted to disk (the parts vector rides in the distio
// bundle, the scalars in the meta file).
type CachedResult struct {
	Key        string  `json:"key"`
	MatrixName string  `json:"matrix"`
	MatrixHash string  `json:"matrix_hash"`
	Rows       int     `json:"rows"`
	Cols       int     `json:"cols"`
	NNZ        int     `json:"nnz"`
	P          int     `json:"p"`
	Method     string  `json:"method"`
	Seed       int64   `json:"seed"`
	Eps        float64 `json:"eps"`
	Refine     bool    `json:"refine"`
	ExactFM    bool    `json:"exact_fm,omitempty"`
	ParallelFM bool    `json:"parallel_fm,omitempty"`
	// Tries/BudgetMS record the race-to-best search spec the result was
	// computed under (0/absent = single run); WinnerTry is the 1-based
	// index of the winning seed variant. All three ride into the
	// persisted meta file (schema-additive: old meta decodes them as 0).
	Tries     int `json:"tries,omitempty"`
	BudgetMS  int `json:"budget_ms,omitempty"`
	WinnerTry int `json:"winner_try,omitempty"`
	// Origin is empty for results this node computed itself and
	// "peer:<addr>" for entries adopted from a cluster peer (fetch or
	// replication); it rides into the persisted meta so provenance
	// survives a restart (schema-additive: old meta decodes it empty).
	Origin    string           `json:"origin,omitempty"`
	Volume    int64            `json:"volume"`
	Imbalance float64          `json:"imbalance"`
	WallMS    float64          `json:"wall_ms"`
	Predict   *spmv.Prediction `json:"predict"`
	Parts     []int            `json:"-"`
}

// Cache is a bounded LRU over content-addressed results. Get promotes,
// Put inserts or refreshes; the oldest entry is evicted past capacity.
// Safe for concurrent use.
type Cache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent
	m   map[string]*list.Element
}

type cacheEntry struct {
	key string
	res *CachedResult
	// hits counts Touch lookups of this entry — the hotness signal
	// behind cluster hot-entry replication; replicated latches once the
	// entry has been pushed to (or received from) peers so each node
	// replicates a key at most once per cache lifetime.
	hits       int64
	replicated bool
}

func newCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// Get returns the cached result for key and marks it most recent.
func (c *Cache) Get(key string) (*CachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// Touch is Get for the submission hot path: it additionally counts the
// hit and returns the entry's observed hit total, the signal hot-entry
// replication triggers on.
func (c *Cache) Touch(key string) (res *CachedResult, hits int64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.m[key]
	if !found {
		return nil, 0, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	e.hits++
	return e.res, e.hits, true
}

// MarkReplicated latches the entry's replicated flag; true exactly on
// the first call (the caller that wins owns the one replication push).
func (c *Cache) MarkReplicated(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return false
	}
	e := el.Value.(*cacheEntry)
	if e.replicated {
		return false
	}
	e.replicated = true
	return true
}

// Put inserts (or refreshes) a result, evicting the least recently used
// entry past capacity. Returns the evicted key, "" if none.
func (c *Cache) Put(key string, res *CachedResult) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return ""
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	if c.ll.Len() <= c.cap {
		return ""
	}
	oldest := c.ll.Back()
	c.ll.Remove(oldest)
	k := oldest.Value.(*cacheEntry).key
	delete(c.m, k)
	return k
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Keys returns every cached key in sorted order — the stable
// enumeration behind /cache/keys. Sorting (not recency) is what makes
// the endpoint's cursor resumable: a key admitted or evicted between
// pages shifts nothing before the cursor.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	keys := make([]string, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	c.mu.Unlock()
	sort.Strings(keys)
	return keys
}
