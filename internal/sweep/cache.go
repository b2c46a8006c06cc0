package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/scenario"
)

// EngineVersion participates in every cache key. Bump it whenever the
// simulation engines or summary semantics change behaviour, so stale
// results can never be replayed as current ones. The cache itself needs
// no migration: entries under an old version simply stop being
// addressed and can be evicted by deleting the cache directory.
const EngineVersion = "wlansim-engine/4"

// SpecKey is the content address of a point: a SHA-256 over the
// canonical JSON of the defaulted spec — with the name and description
// cleared, so two sweeps that describe the same physics share entries —
// plus the engine version. Call only on validated specs. It is exported
// for the sweep service (internal/svc), whose lease/complete protocol
// is keyed on exactly these addresses so completions stay idempotent
// across lease reissues.
func SpecKey(sp *scenario.Spec) string {
	c := cloneSpec(sp)
	c.Name = ""
	c.Description = ""
	data, err := json.Marshal(&c)
	if err != nil {
		// Spec is a closed struct of marshalable fields; failure here is
		// a programming error, not an input error.
		panic(fmt.Sprintf("sweep: marshal spec: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(EngineVersion))
	h.Write([]byte{0})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// cacheEntry is the on-disk format of one completed point.
type cacheEntry struct {
	Engine  string            `json:"engine"`
	Spec    *scenario.Spec    `json:"spec"`
	Summary *scenario.Summary `json:"summary"`
}

// Cache is a content-addressed store of completed point summaries.
// Entries live under <dir>/<key[:2]>/<key>.json; writes are atomic
// (temp file + rename), so concurrent shards may share one directory.
// Eviction is manual and always safe: delete any entry, or the whole
// directory, and the points are simply re-simulated.
//
// A corrupt or truncated entry (disk-level damage, or a write from a
// tool predating atomic puts) is never trusted and never silently
// skipped: Get quarantines it — renames it to <key>.corrupt so the
// evidence survives for inspection and the address reads as a miss —
// counts it (Quarantined), and the point is re-simulated.
type Cache struct {
	dir string

	mu          sync.Mutex
	quarantined int
}

// OpenCache creates (if needed) and opens a cache directory.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// Get returns the cached summary for a key, or false on a miss. A
// missing entry, or one written under a different engine version, is a
// clean miss; a corrupt or truncated entry is quarantined (renamed to
// <key>.corrupt, counted in Quarantined) and then reads as a miss, so
// the point re-simulates instead of the damage being skipped silently.
func (c *Cache) Get(key string) (*scenario.Summary, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Summary == nil {
		c.quarantine(key)
		return nil, false
	}
	if e.Engine != EngineVersion {
		// A well-formed entry for another engine version is stale, not
		// damaged: leave it for whoever still addresses that version.
		return nil, false
	}
	return e.Summary, true
}

// quarantine moves a damaged entry aside so its address frees up for a
// fresh simulation while the bytes stay inspectable. Rename failures
// (e.g. a concurrent shard already quarantined it) still count the
// sighting: the caller observed corruption either way.
func (c *Cache) quarantine(key string) {
	os.Rename(c.path(key), filepath.Join(c.dir, key[:2], key+".corrupt"))
	c.mu.Lock()
	c.quarantined++
	c.mu.Unlock()
}

// Quarantined returns how many corrupt entries this Cache handle has
// quarantined since it was opened.
func (c *Cache) Quarantined() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quarantined
}

// Put stores a completed point. The spec rides along for debuggability
// (a cache entry is self-describing), but only the key addresses it.
func (c *Cache) Put(key string, sp *scenario.Spec, sum *scenario.Summary) error {
	data, err := json.MarshalIndent(&cacheEntry{Engine: EngineVersion, Spec: sp, Summary: sum}, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: marshal cache entry: %w", err)
	}
	dir := filepath.Dir(c.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	tmp, err := os.CreateTemp(dir, key+".tmp*")
	if err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	return nil
}
