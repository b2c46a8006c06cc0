package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"

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
	c := *sp // shallow: json.Marshal only reads the shared slices
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

// crc32c returns the Castagnoli table the entry checksum uses. It is
// built on first use: building it takes about 0.4 ms, which a process
// that never opens a cache should not pay at start-up.
var crc32c = sync.OnceValue(func() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) })

// Cache is a content-addressed store of completed point summaries.
// Entries live under <dir>/<key[:2]>/<key>.json; writes are atomic
// (temp file + rename), so concurrent shards may share one directory.
// Eviction is manual and always safe: delete any entry, or the whole
// directory, and the points are simply re-simulated.
//
// An entry is row-ready: three lines, a header parsed without
// encoding/json, the spec as compact JSON (for debugging only; the key
// addresses the entry) and the summary as its canonical json.Marshal
// bytes:
//
//	wlansim-engine/4 crc32c=<8 hex digits>
//	{"name":...,"topology":...}
//	{"name":...,"scheme":...}
//
// The CRC-32C covers everything after the header line. A streaming
// sweep splices a hit's verified summary bytes straight into its row,
// so a warm pass neither decodes nor re-encodes a summary.
//
// A corrupt or truncated entry — a checksum mismatch, a malformed
// header, a short file — is never trusted and never silently skipped:
// the lookup quarantines it — renames it to <key>.corrupt so the
// evidence survives for inspection and the address reads as a miss —
// counts it (Quarantined), and the point is re-simulated. An entry for
// another engine version, or one in the previous single-object JSON
// layout, is a clean miss: it is stale, not damaged, and the
// re-simulated point's Put replaces it.
type Cache struct {
	prefix      string // the directory cleaned, with a trailing separator
	quarantined atomic.Int32
}

// OpenCache creates (if needed) and opens a cache directory.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: open cache: %w", err)
	}
	prefix := filepath.Clean(dir)
	if !os.IsPathSeparator(prefix[len(prefix)-1]) { // only a root ends in one
		prefix += string(filepath.Separator)
	}
	return &Cache{prefix: prefix}, nil
}

// path is filepath.Join(dir, key[:2], key+".json") without the
// per-call Clean: the prefix is clean and a key is hex.
func (c *Cache) path(key string) string {
	return c.prefix + key[:2] + string(filepath.Separator) + key + ".json"
}

// Get returns the cached summary for a key, or false on a miss. A
// missing entry, or a stale one (another engine version, the previous
// layout), is a clean miss; a damaged entry is quarantined (renamed to
// <key>.corrupt, counted in Quarantined) and then reads as a miss, so
// the point re-simulates instead of the damage being skipped silently.
// The summary carries the name it was stored under.
func (c *Cache) Get(key string) (*scenario.Summary, bool) {
	data, ok := c.lookup(key)
	if !ok {
		return nil, false
	}
	var sum scenario.Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		// The checksum verified, so Put did not write these bytes.
		c.quarantine(key)
		return nil, false
	}
	return &sum, true
}

// lookup is Get without the decode: it returns a hit's canonical
// summary bytes, checksum-verified and starting with the stored name
// (see summaryTail), with the same miss and quarantine rules.
func (c *Cache) lookup(key string) ([]byte, bool) {
	sum, st := c.read(key)
	if st == entryDamaged {
		c.quarantine(key)
	}
	return sum, st == entryHit
}

// read reads and classifies the entry at key's address, with no side
// effect: an unreadable address is a clean miss.
func (c *Cache) read(key string) ([]byte, entryStatus) {
	data, err := readEntry(c.path(key))
	if err != nil {
		return nil, entryMiss
	}
	return parseEntry(data)
}

// entryReadSize is the first read buffer of readEntry. A summary holds
// no per-station arrays, so an entry is about 1 KB whatever the station
// count, unless its spec lists custom points or weights.
const entryReadSize = 4096

// readEntry is os.ReadFile without the os.File, which costs every entry
// an fstat, a failed poller registration and a finalizer set and then
// cleared. It reads into a stack buffer with bare system calls until a
// read returns 0, and returns the bytes in one allocation of exactly
// their size; an entry larger than the buffer grows a heap copy first.
func readEntry(path string) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)
	var first [entryReadSize]byte
	buf := first[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, 2*cap(buf)), buf...)
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
		buf = buf[:len(buf)+n]
	}
	data := make([]byte, len(buf))
	copy(data, buf)
	return data, nil
}

// entryStatus classifies the bytes found at an entry's address.
type entryStatus int

const (
	entryHit     entryStatus = iota
	entryMiss                // absent, or well-formed but not this engine's: a clean miss
	entryDamaged             // quarantined
)

// parseEntry checks an entry's header and checksum and returns its
// summary line.
func parseEntry(data []byte) ([]byte, entryStatus) {
	if len(data) > 0 && data[0] == '{' {
		// The previous layout, one indented JSON object, is stale
		// whatever engine wrote it; only bytes that are not even JSON
		// (a write killed mid-way) count as damage.
		if json.Valid(data) {
			return nil, entryMiss
		}
		return nil, entryDamaged
	}
	header, body, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		return nil, entryDamaged
	}
	engine, sumHex, ok := bytes.Cut(header, []byte(" crc32c="))
	var want [4]byte
	if !ok || len(engine) == 0 || len(sumHex) != 2*len(want) {
		return nil, entryDamaged
	}
	if _, err := hex.Decode(want[:], sumHex); err != nil {
		return nil, entryDamaged
	}
	if string(engine) != EngineVersion {
		return nil, entryMiss
	}
	if crc32.Checksum(body, crc32c()) != binary.BigEndian.Uint32(want[:]) {
		return nil, entryDamaged
	}
	_, sum, _ := bytes.Cut(body, []byte{'\n'})
	sum = bytes.TrimSuffix(sum, []byte{'\n'})
	if _, ok := summaryTail(sum); !ok {
		// Only a forged checksum gets here; WriteRow could not splice it.
		return nil, entryDamaged
	}
	return sum, entryHit
}

// quarantine moves a damaged entry aside so its address frees up for a
// fresh simulation while the bytes stay inspectable. Rename failures
// (e.g. a concurrent shard already quarantined it) still count the
// sighting: the caller observed corruption either way.
func (c *Cache) quarantine(key string) {
	os.Rename(c.path(key), c.prefix+key[:2]+string(filepath.Separator)+key+".corrupt")
	c.quarantined.Add(1)
}

// Quarantined returns how many corrupt entries this Cache handle has
// quarantined since it was opened.
func (c *Cache) Quarantined() int { return int(c.quarantined.Load()) }

// Put stores a completed point. The spec rides along for debuggability
// (a cache entry is self-describing), but only the key addresses it.
func (c *Cache) Put(key string, sp *scenario.Spec, sum *scenario.Summary) error {
	data, err := json.Marshal(sum)
	if err != nil {
		return fmt.Errorf("sweep: marshal cache entry: %w", err)
	}
	return c.put(key, sp, data)
}

// put is Put for a summary already in its canonical encoding.
func (c *Cache) put(key string, sp *scenario.Spec, sum []byte) error {
	spec, err := json.Marshal(sp)
	if err != nil {
		return fmt.Errorf("sweep: marshal cache entry: %w", err)
	}
	body := make([]byte, 0, len(spec)+len(sum)+2)
	body = append(append(append(append(body, spec...), '\n'), sum...), '\n')
	header := fmt.Sprintf("%s crc32c=%08x\n", EngineVersion, crc32.Checksum(body, crc32c()))
	dir := filepath.Dir(c.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	tmp, err := os.CreateTemp(dir, key+".tmp*")
	if err != nil {
		return fmt.Errorf("sweep: cache put: %w", err)
	}
	if _, err := tmp.Write(append([]byte(header), body...)); err != nil {
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
