package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// Meta is the sidecar stamp of one sweep run: which engine produced
// the rows, a content hash of the grid that defined them, and how the
// run went. It deliberately lives NEXT TO the JSONL output (in a
// separate <out>.meta.json file), never inside it: the rows themselves
// must stay a pure function of (grid, engine version) so shard merges
// and golden diffs remain byte-identical, while wall time and
// timestamps are facts about one particular execution.
type Meta struct {
	// EngineVersion is the cache-key engine version the run used.
	EngineVersion string `json:"engine_version"`
	// GridName is the grid's declared name, if any.
	GridName string `json:"grid_name,omitempty"`
	// ConfigHash is GridFingerprint of the executed grid: runs over the
	// same physics share it, whatever file or shard produced them.
	ConfigHash string `json:"config_hash"`
	// Shard is the "i/N" partition this run executed ("" = unsharded).
	Shard string `json:"shard,omitempty"`
	// Points is the run's satisfaction breakdown.
	Points Stats `json:"points"`
	// StartedAt is the wall-clock start in RFC 3339 with milliseconds.
	StartedAt string `json:"started_at"`
	// WallMS is the run's wall-clock duration in milliseconds.
	WallMS int64 `json:"wall_ms"`
}

// NewMeta assembles the stamp for a finished run.
func NewMeta(g *Grid, sh Shard, st Stats, started time.Time, wall time.Duration) *Meta {
	m := &Meta{
		EngineVersion: EngineVersion,
		GridName:      g.Name,
		ConfigHash:    GridFingerprint(g),
		Points:        st,
		StartedAt:     started.UTC().Format("2006-01-02T15:04:05.000Z07:00"),
		WallMS:        wall.Milliseconds(),
	}
	if sh.Count > 0 {
		m.Shard = fmt.Sprintf("%d/%d", sh.Index, sh.Count)
	}
	return m
}

// WriteFile writes the stamp as indented JSON.
func (m *Meta) WriteFile(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: marshal meta: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("sweep: write meta: %w", err)
	}
	return nil
}

// MetaPath is the canonical sidecar location for a JSONL output file.
func MetaPath(outPath string) string { return outPath + ".meta.json" }

// WriteOutput writes a JSONL output file whole or not at all. It drops
// a stale sidecar at path first, so no run leaves provenance beside rows
// it did not write. write streams the rows into a temp file beside path,
// which is renamed over path only when write succeeds: a failed run
// leaves path as it was and no temp file behind, and a killed one
// leaves path as it was. The meta write returns, when non-nil, then
// goes to path's sidecar.
func WriteOutput(path string, write func(io.Writer) (*Meta, error)) error {
	if err := os.Remove(MetaPath(path)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	var meta *Meta
	if err = tmp.Chmod(0o644); err == nil {
		meta, err = write(tmp)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if meta == nil {
		return nil
	}
	return meta.WriteFile(MetaPath(path))
}

// GridFingerprint is the content address of a whole grid: a SHA-256
// over the engine version and the grid's canonical JSON (name and
// description cleared, mirroring the per-point cache keys), so two
// sweeps that describe the same physics produce the same fingerprint
// regardless of labelling.
func GridFingerprint(g *Grid) string {
	c := *g
	c.Name = ""
	c.Description = ""
	data, err := json.Marshal(&c)
	if err != nil {
		// Grid is a closed struct of marshalable fields; failure is a
		// programming error, not an input error.
		panic(fmt.Sprintf("sweep: marshal grid: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(EngineVersion))
	h.Write([]byte{0})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}
