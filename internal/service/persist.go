package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"mediumgrain/internal/cluster"
	"mediumgrain/internal/distio"
	"mediumgrain/internal/sparse"
)

// cacheMetaSchema versions the per-entry meta file that rides alongside
// each persisted distio bundle.
const cacheMetaSchema = "mgserve-cache/1"

// cacheMeta is the on-disk scalar record of one cache entry; the parts
// vector and the matrix pattern live in the distio bundle of the same
// key, so the pair round-trips a CachedResult.
type cacheMeta struct {
	Schema string `json:"schema"`
	CachedResult
}

// saveCacheEntry persists one completed result under dataDir as a
// distio bundle (<key>.{mtx,parts,invec,outvec}) plus <key>.meta.json.
// The meta file is written last, via rename, so a crash mid-write never
// leaves a meta file pointing at a missing or partial bundle.
func saveCacheEntry(dataDir string, res *CachedResult, a *sparse.Matrix) error {
	// Entries are content-addressed and immutable: if the meta file
	// exists the bundle it points at is complete, and rewriting it in
	// place would reopen the very crash window the meta-last ordering
	// closes (a truncated bundle under a valid meta). Recomputations of
	// an evicted-but-persisted key land here and simply skip the I/O.
	if _, err := os.Stat(filepath.Join(dataDir, res.Key+".meta.json")); err == nil {
		return nil
	}
	b, err := distio.NewBundle(a, res.Parts, res.P, nil)
	if err != nil {
		return err
	}
	if err := distio.Write(dataDir, res.Key, b); err != nil {
		return err
	}
	meta := cacheMeta{Schema: cacheMetaSchema, CachedResult: *res}
	data, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return err
	}
	// A unique temp name per writer: two runners completing the same
	// key concurrently (no single-flight dedup) must not race on one
	// tmp path — both renames succeed and write identical content.
	tmp, err := os.CreateTemp(dataDir, res.Key+".meta.tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dataDir, res.Key+".meta.json"))
}

// removeCacheEntry deletes one persisted entry's files. The meta file
// goes first: it is what makes an entry visible to rehydration, so a
// removal cut short by a crash leaves an invisible (and later
// re-persistable) bundle, never a meta pointing at missing files.
// Callers hold persistMu.
func removeCacheEntry(dir, key string) error {
	var firstErr error
	for _, name := range []string{
		key + ".meta.json",
		key + ".mtx",
		key + ".parts",
		key + ".invec",
		key + ".outvec",
	} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// loadCacheDir rehydrates up to max persisted entries under dir —
// newest first. Runtime eviction garbage-collects its key's files, so
// the directory normally tracks the cache; the cap still matters
// because persistence is best-effort (a failed removal, a crash
// mid-GC, or a directory inherited from an older version can leave
// extra entries) and reading and hash-validating entries the LRU would
// immediately discard would make startup cost scale with everything
// ever written instead of with capacity. The kept entries
// are returned oldest first so sequential cache Puts leave the newest
// most recent. Corrupt or inconsistent entries are skipped and
// reported (and don't count against max); they never poison the cache,
// because the parts vector is revalidated against the bundle's own
// matrix and the stored volume is recomputed and compared.
func loadCacheDir(dir string, max int) ([]*CachedResult, []error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, []error{err}
	}
	type metaFile struct {
		key string
		mod time.Time
	}
	var metas []metaFile
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			// Sweep export snapshots orphaned by a crash mid-transfer; a
			// live server removes its own as each peer export finishes.
			if strings.HasPrefix(name, ".export-") {
				_ = os.RemoveAll(filepath.Join(dir, name))
			}
			continue
		}
		// Sweep temp files orphaned by a crash mid-persist; nothing
		// ever reads them.
		if strings.Contains(name, ".meta.tmp-") {
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, ".meta.json") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		metas = append(metas, metaFile{key: strings.TrimSuffix(name, ".meta.json"), mod: info.ModTime()})
	}
	sort.Slice(metas, func(i, j int) bool {
		if !metas[i].mod.Equal(metas[j].mod) {
			return metas[i].mod.After(metas[j].mod)
		}
		return metas[i].key > metas[j].key
	})

	var out []*CachedResult
	var errs []error
	for _, mf := range metas {
		if len(out) >= max {
			break
		}
		res, err := loadCacheEntry(dir, mf.key)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		out = append(out, res)
	}
	slices.Reverse(out)
	return out, errs
}

// loadCacheEntry reads and cross-validates one persisted entry.
func loadCacheEntry(dir, key string) (*CachedResult, error) {
	res, _, err := loadCacheEntryMatrix(dir, key)
	return res, err
}

// loadCacheEntryMatrix is loadCacheEntry returning the bundle's matrix
// too: the peer-transfer path adopts a fetched entry into the normal
// keepResult flow, which needs the matrix to re-persist the bundle
// locally. The same validation gates both paths — schema, key, bundle/
// meta agreement, matrix hash, recomputed volume, and the cache key
// re-derived from the entry's own fields — so a corrupt peer transfer
// is rejected exactly like a corrupt on-disk entry. The re-derivation
// keeps a peer from binding a valid entry to the wrong address, and it
// keeps rehydration from filling the cache with entries persisted under
// an older key version, which no current request can reach.
func loadCacheEntryMatrix(dir, key string) (*CachedResult, *sparse.Matrix, error) {
	data, err := os.ReadFile(filepath.Join(dir, key+".meta.json"))
	if err != nil {
		return nil, nil, fmt.Errorf("service: cache entry %s: %w", key, err)
	}
	var meta cacheMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, nil, fmt.Errorf("service: cache entry %s: %w", key, err)
	}
	if meta.Schema != cacheMetaSchema {
		return nil, nil, fmt.Errorf("service: cache entry %s: schema %q (want %q)", key, meta.Schema, cacheMetaSchema)
	}
	if meta.Key != key {
		return nil, nil, fmt.Errorf("service: cache entry %s: meta claims key %q", key, meta.Key)
	}
	b, err := distio.Read(dir, key)
	if err != nil {
		return nil, nil, fmt.Errorf("service: cache entry %s: %w", key, err)
	}
	if b.P != meta.P || b.A.NNZ() != meta.NNZ {
		return nil, nil, fmt.Errorf("service: cache entry %s: bundle (p=%d, nnz=%d) disagrees with meta (p=%d, nnz=%d)",
			key, b.P, b.A.NNZ(), meta.P, meta.NNZ)
	}
	if h := cluster.MatrixHash(b.A); h != meta.MatrixHash {
		return nil, nil, fmt.Errorf("service: cache entry %s: matrix hash %s != recorded %s", key, h, meta.MatrixHash)
	}
	if v := b.Volume(); v != meta.Volume {
		return nil, nil, fmt.Errorf("service: cache entry %s: volume %d != recorded %d", key, v, meta.Volume)
	}
	res := meta.CachedResult
	tries := res.Tries
	if tries < 1 {
		tries = 1 // stored as 0 for single runs; the key uses >= 1
	}
	derived := cluster.CacheKey(res.MatrixHash, res.P, res.Method, res.Seed, res.Eps,
		res.Refine, res.ParallelFM, tries, res.BudgetMS)
	if derived != key {
		return nil, nil, fmt.Errorf("service: cache entry %s: fields derive key %s", key, derived)
	}
	res.Parts = b.Parts
	return &res, b.A, nil
}
