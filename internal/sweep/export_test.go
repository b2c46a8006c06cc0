package sweep

import "repro/internal/scenario"

// Row is the JSONL record WriteRow streams per point, as the tests
// encode it with json.Marshal to pin WriteRow's bytes.
type Row struct {
	Index   int               `json:"index"`
	Name    string            `json:"name"`
	Axes    map[string]any    `json:"axes"`
	Key     string            `json:"key"`
	Summary *scenario.Summary `json:"summary"`
}
