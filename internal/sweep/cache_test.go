package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

func validSpec(t testing.TB) *scenario.Spec {
	t.Helper()
	sp := &scenario.Spec{
		Name:     "cache-spec",
		Topology: scenario.TopologySpec{Kind: scenario.TopoConnected, N: 4},
		Duration: scenario.Duration(100e6),
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestCachePutGetRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sp := validSpec(t)
	key := SpecKey(sp)
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	sum := &scenario.Summary{Name: "original", Scheme: sp.Scheme, Stations: 4, Replications: 1,
		Duration: sp.Duration, Warmup: *sp.Warmup}
	sum.ThroughputMbps.Mean = 12.5
	if err := c.Put(key, sp, sum); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if got.ThroughputMbps.Mean != 12.5 || got.Stations != 4 {
		t.Errorf("round trip mangled summary: %+v", got)
	}
}

func TestCacheQuarantinesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := validSpec(t)
	key := SpecKey(sp)
	if err := c.Put(key, sp, &scenario.Summary{}); err != nil {
		t.Fatal(err)
	}
	// Truncate the entry as a killed pre-atomic writer might have.
	path := filepath.Join(dir, key[:2], key+".json")
	if err := os.WriteFile(path, []byte(`{"engine": "wlansim-`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Error("corrupt entry served as a hit")
	}
	if got := c.Quarantined(); got != 1 {
		t.Errorf("Quarantined() = %d, want 1", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt entry still at its address: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, key[:2], key+".corrupt")); err != nil {
		t.Errorf("quarantined bytes not preserved: %v", err)
	}
	// The freed address accepts a fresh result.
	if err := c.Put(key, sp, &scenario.Summary{Name: "fresh"}); err != nil {
		t.Fatal(err)
	}
	if sum, ok := c.Get(key); !ok || sum.Name != "fresh" {
		t.Errorf("re-simulated entry not served: ok=%v sum=%+v", ok, sum)
	}
}

// TestRunQuarantinesTruncatedEntryMidCampaign is the regression test
// for silent cache-corruption skips: a warm campaign whose cache loses
// one entry to truncation must quarantine it, count it in Stats, and
// re-simulate the point — with output bytes identical to the cold run.
func TestRunQuarantinesTruncatedEntryMidCampaign(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := &Grid{
		Name: "quarantine",
		Base: scenario.Spec{
			Topology: scenario.TopologySpec{Kind: scenario.TopoConnected},
			Duration: scenario.Duration(100e6),
		},
		Axes: []Axis{{Field: FieldNodes, Values: Ints(2, 3, 4)}},
	}
	var cold bytes.Buffer
	st, err := (&Runner{Cache: c}).Stream(context.Background(), g, &cold)
	if err != nil {
		t.Fatal(err)
	}
	if st.Simulated != 3 || st.Quarantined != 0 {
		t.Fatalf("cold run stats: %+v", st)
	}
	// Truncate the middle point's entry between runs.
	pts, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, pts[1].Key[:2], pts[1].Key+".json")
	if err := os.WriteFile(victim, []byte(`{"engine":`), 0o644); err != nil {
		t.Fatal(err)
	}
	var warm bytes.Buffer
	st, err = (&Runner{Cache: c}).Stream(context.Background(), g, &warm)
	if err != nil {
		t.Fatal(err)
	}
	if st.Simulated != 1 || st.Cached != 2 || st.Quarantined != 1 {
		t.Errorf("post-corruption stats: %+v", st)
	}
	if !strings.Contains(st.String(), "1 quarantined") {
		t.Errorf("stats line %q does not report the quarantine", st)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Error("re-simulated output drifted from the cold run")
	}
	if _, err := os.Stat(victim + ".corrupt"); err == nil {
		t.Error("quarantine used <key>.json.corrupt, want <key>.corrupt")
	}
	if _, err := os.Stat(filepath.Join(dir, pts[1].Key[:2], pts[1].Key+".corrupt")); err != nil {
		t.Errorf("quarantined entry missing: %v", err)
	}
}

func TestCacheMissesOnEngineVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := validSpec(t)
	key := SpecKey(sp)
	if err := c.Put(key, sp, &scenario.Summary{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key[:2], key+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := strings.Replace(string(data), EngineVersion, "wlansim-engine/0", 1)
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Error("stale-engine entry served as a hit")
	}
}

func TestSpecKeyIgnoresNameAndDescription(t *testing.T) {
	a := validSpec(t)
	b := validSpec(t)
	b.Name = "entirely-different"
	b.Description = "docs"
	if SpecKey(a) != SpecKey(b) {
		t.Error("name/description changed the cache key")
	}
	c := validSpec(t)
	c.Seed = 2
	if SpecKey(a) == SpecKey(c) {
		t.Error("different seeds share a cache key")
	}
}

func TestOpenCacheRejectsEmptyDir(t *testing.T) {
	if _, err := OpenCache(""); err == nil {
		t.Error("empty cache dir accepted")
	}
}

// quarantineGrid is a small cached campaign for the integrity tests.
func quarantineGrid() *Grid {
	return &Grid{
		Name: "integrity",
		Base: scenario.Spec{
			Topology: scenario.TopologySpec{Kind: scenario.TopoConnected},
			Duration: scenario.Duration(100e6),
		},
		Axes: []Axis{{Field: FieldNodes, Values: Ints(2, 3, 4)}},
	}
}

// A single flipped digit inside a stored summary leaves valid JSON, so
// only the checksum can catch it: the warm run must quarantine the
// entry and re-simulate the point instead of serving the wrong count.
func TestRunQuarantinesFlippedDigit(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := quarantineGrid()
	var cold bytes.Buffer
	if _, err := (&Runner{Cache: c}).Stream(context.Background(), g, &cold); err != nil {
		t.Fatal(err)
	}
	pts, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, pts[1].Key[:2], pts[1].Key+".json")
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	const field = `"successes":`
	i := bytes.LastIndex(data, []byte(field)) + len(field)
	for i < len(data) && data[i] == ' ' {
		i++
	}
	if i < len(field) || i == len(data) || data[i] < '1' || data[i] > '9' {
		t.Fatalf("no positive success count in the entry:\n%s", data)
	}
	if data[i] == '9' {
		data[i] = '8'
	} else {
		data[i] = '9'
	}
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, encoded := range []bool{false, true} {
		if encoded {
			// Damage the freshly re-simulated entry again for the
			// streaming path.
			if err := os.WriteFile(victim, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var warm bytes.Buffer
		var st Stats
		if encoded {
			st, err = (&Runner{Cache: c}).Stream(context.Background(), g, &warm)
		} else {
			st, err = (&Runner{Cache: c}).Each(context.Background(), g, func(pr *PointResult) error {
				return WriteRow(&warm, pr)
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		if st.Simulated != 1 || st.Cached != 2 || st.Quarantined != 1 {
			t.Errorf("encoded=%v: stats after a flipped digit: %+v", encoded, st)
		}
		if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
			t.Errorf("encoded=%v: warm rows differ from the cold run", encoded)
		}
	}
}

// oldLayoutEntry is an entry as the previous cache format wrote it:
// one indented JSON object of engine, spec and summary.
func oldLayoutEntry(t testing.TB, sp *scenario.Spec, sum *scenario.Summary) []byte {
	t.Helper()
	data, err := json.MarshalIndent(struct {
		Engine  string            `json:"engine"`
		Spec    *scenario.Spec    `json:"spec"`
		Summary *scenario.Summary `json:"summary"`
	}{EngineVersion, sp, sum}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// An entry in the previous layout is stale, not damaged: a clean miss
// that is neither served nor quarantined, and that the re-simulated
// point's Put replaces.
func TestCacheOldLayoutIsCleanMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := quarantineGrid()
	pts, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		path := c.path(pt.Key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		old := oldLayoutEntry(t, &pt.Spec, &scenario.Summary{Name: pt.Name, Successes: 7})
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get(pts[0].Key); ok {
		t.Error("old-layout entry served as a hit")
	}
	if _, ok := c.lookup(pts[0].Key); ok {
		t.Error("old-layout entry served as an encoded hit")
	}
	if got := c.Quarantined(); got != 0 {
		t.Errorf("Quarantined() = %d after old-layout lookups, want 0", got)
	}
	var first, second bytes.Buffer
	st, err := (&Runner{Cache: c}).Stream(context.Background(), g, &first)
	if err != nil {
		t.Fatal(err)
	}
	if st.Simulated != 3 || st.Quarantined != 0 {
		t.Errorf("run over old-layout entries: %+v", st)
	}
	st, err = (&Runner{Cache: c}).Stream(context.Background(), g, &second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached != 3 {
		t.Errorf("old-layout entries were not replaced: %+v", st)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("rows served from replaced entries differ")
	}
}

// A header that is not "<engine> crc32c=<8 hex>" is damage, whatever
// follows it.
func TestCacheQuarantinesMalformedHeader(t *testing.T) {
	sp := validSpec(t)
	key := SpecKey(sp)
	for _, header := range []string{
		"",
		EngineVersion,
		EngineVersion + " crc32c=",
		EngineVersion + " crc32c=0123456",
		EngineVersion + " crc32c=0123456789",
		EngineVersion + " crc32c=zzzzzzzz",
		EngineVersion + " crc=01234567",
		" crc32c=01234567",
	} {
		dir := t.TempDir()
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put(key, sp, &scenario.Summary{Name: "x"}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(c.path(key))
		if err != nil {
			t.Fatal(err)
		}
		_, body, _ := bytes.Cut(data, []byte{'\n'})
		if err := os.WriteFile(c.path(key), append([]byte(header+"\n"), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(key); ok {
			t.Errorf("header %q: served as a hit", header)
		}
		if got := c.Quarantined(); got != 1 {
			t.Errorf("header %q: Quarantined() = %d, want 1", header, got)
		}
	}
}

// FuzzCacheEntry writes arbitrary bytes at an entry's address. The
// lookup must never panic, may hit only when the checksum verifies,
// every hit must decode into a Summary, and a well-formed entry of the
// previous layout must never be quarantined.
func FuzzCacheEntry(f *testing.F) {
	sp := validSpec(f)
	key := SpecKey(sp)
	c, err := OpenCache(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	sum := &scenario.Summary{Name: `seed <&> "entry"`, Scheme: sp.Scheme, Stations: 4, Successes: 364}
	if err := c.Put(key, sp, sum); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(c.path(key))
	if err != nil {
		f.Fatal(err)
	}
	if _, ok := c.lookup(key); !ok {
		f.Fatal("a freshly put entry misses")
	}
	f.Add(valid)
	for _, n := range []int{0, 1, bytes.IndexByte(valid, '\n'), bytes.IndexByte(valid, '\n') + 1, len(valid) / 2, len(valid) - 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	f.Add(oldLayoutEntry(f, sp, sum))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		q0 := c.Quarantined()
		got, ok := c.lookup(key)
		oldLayout := len(data) > 0 && data[0] == '{' && json.Valid(data)
		if oldLayout && (ok || c.Quarantined() != q0) {
			t.Fatalf("old-layout entry: hit=%v, quarantined %d", ok, c.Quarantined()-q0)
		}
		if !ok {
			return
		}
		header, body, _ := bytes.Cut(data, []byte{'\n'})
		want := fmt.Sprintf("%s crc32c=%08x", EngineVersion, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		if !strings.EqualFold(string(header), want) {
			t.Fatalf("hit on an entry whose checksum does not verify: header %q, want %q", header, want)
		}
		var s scenario.Summary
		if err := json.Unmarshal(got, &s); err != nil {
			t.Fatalf("hit does not decode into a Summary: %v", err)
		}
		if c.Quarantined() != q0 {
			t.Fatal("a hit was quarantined")
		}
	})
}
