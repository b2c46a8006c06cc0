// Package trace captures the simulator's frame stream to a line-oriented
// JSON log and analyses captures offline — the repository's equivalent of
// a pcap writer plus a protocol statistics tool.
//
// The writer implements eventsim.Tracer by flattening each typed frame
// (package frame) into a Record; the reader streams records back;
// Analyze aggregates per-station and per-type statistics, and
// ShortTermFairness computes the windowed Jain index.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"repro/internal/frame"
	"repro/internal/sim"
)

// Record is one captured frame.
type Record struct {
	// TimeNs is the simulated completion instant in nanoseconds.
	TimeNs int64 `json:"t"`
	// Type is the frame type name ("Data", "ACK", "Beacon", "RTS",
	// "CTS").
	Type string `json:"type"`
	// Source is the transmitting station index, -1 for the AP.
	Source int `json:"src"`
	// Sequence is the frame sequence number where applicable.
	Sequence uint16 `json:"seq,omitempty"`
	// Retry is the data frame's retry counter.
	Retry uint8 `json:"retry,omitempty"`
	// Bits is the payload size for data frames.
	Bits int `json:"bits,omitempty"`
	// Collided marks frames destroyed by overlap at the AP.
	Collided bool `json:"collided,omitempty"`
}

// Writer captures frames as JSON lines. It implements eventsim.Tracer.
// Close flushes buffered output; the caller owns the underlying writer.
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
	n   int
	err error
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Frame implements the simulator's Tracer hook.
func (w *Writer) Frame(at sim.Time, l frame.Layer, collided bool) {
	if w.err != nil {
		return
	}
	rec := Record{TimeNs: int64(at), Type: l.FrameType().String(), Collided: collided, Source: -1}
	switch f := l.(type) {
	case *frame.Data:
		rec.Source = int(f.Source)
		rec.Sequence = f.Sequence
		rec.Retry = f.Retry
		rec.Bits = f.Bits
	case *frame.ACK:
		rec.Sequence = f.Sequence
	case *frame.Beacon:
		rec.Sequence = f.Sequence
	case *frame.RTS:
		rec.Source = int(f.Source)
	case *frame.CTS:
	}
	if err := w.enc.Encode(&rec); err != nil {
		w.err = err
	}
	w.n++
}

// Count returns the number of frames captured.
func (w *Writer) Count() int { return w.n }

// Close flushes the buffer and reports any deferred error.
func (w *Writer) Close() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.err
}

// Read streams records from a JSONL capture, invoking fn per record. It
// stops at the first malformed line or when fn returns an error.
func Read(r io.Reader, fn func(Record) error) error {
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// StationSummary aggregates one station's capture statistics.
type StationSummary struct {
	Station    int
	Data       int
	Collided   int
	Retries    int
	BitsOK     int64
	MaxRetry   uint8
	FirstSeenS float64
	LastSeenS  float64
}

// Summary is the aggregate view of a capture.
type Summary struct {
	Frames    int
	ByType    map[string]int
	Stations  []StationSummary
	SpanS     float64
	Collided  int
	GoodputBp float64 // delivered payload bits per second over the span
}

// Analyze reads a capture and aggregates statistics.
func Analyze(r io.Reader) (*Summary, error) {
	s := &Summary{ByType: map[string]int{}}
	byStation := map[int]*StationSummary{}
	var minT, maxT int64
	first := true
	err := Read(r, func(rec Record) error {
		s.Frames++
		s.ByType[rec.Type]++
		if rec.Collided {
			s.Collided++
		}
		if first || rec.TimeNs < minT {
			minT = rec.TimeNs
		}
		if first || rec.TimeNs > maxT {
			maxT = rec.TimeNs
		}
		first = false
		if rec.Type != "Data" {
			return nil
		}
		st, ok := byStation[rec.Source]
		if !ok {
			st = &StationSummary{Station: rec.Source, FirstSeenS: float64(rec.TimeNs) / 1e9}
			byStation[rec.Source] = st
		}
		st.Data++
		st.LastSeenS = float64(rec.TimeNs) / 1e9
		if rec.Collided {
			st.Collided++
		} else {
			st.BitsOK += int64(rec.Bits)
		}
		if rec.Retry > 0 {
			st.Retries++
		}
		if rec.Retry > st.MaxRetry {
			st.MaxRetry = rec.Retry
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	//wlanvet:allow map order re-established: Stations is sorted by station id immediately below, so iteration order never reaches the summary
	for _, st := range byStation {
		s.Stations = append(s.Stations, *st)
	}
	sort.Slice(s.Stations, func(i, j int) bool { return s.Stations[i].Station < s.Stations[j].Station })
	if !first {
		s.SpanS = float64(maxT-minT) / 1e9
	}
	if s.SpanS > 0 {
		var bits int64
		for _, st := range s.Stations {
			bits += st.BitsOK
		}
		s.GoodputBp = float64(bits) / s.SpanS
	}
	return s, nil
}

// ShortTermFairness computes Jain's index over sliding windows of
// `window` successful data frames from a capture — the short-term
// fairness view (a scheme can be long-term fair yet starve stations for
// bursts; p-persistent CSMA's per-slot independence gives it good
// short-term fairness, one of the paper's inherited IdleSense arguments).
// It returns the per-window indices and their mean. A data frame whose
// source lies outside the station address range is an error.
func ShortTermFairness(r io.Reader, window int) (indices []float64, mean float64, err error) {
	var sources []int
	err = Read(r, func(rec Record) error {
		if rec.Type != "Data" {
			return nil
		}
		if rec.Source < 0 || rec.Source > math.MaxUint16 {
			return fmt.Errorf("trace: data frame at %dns has source %d outside [0, %d]", rec.TimeNs, rec.Source, math.MaxUint16)
		}
		if !rec.Collided {
			sources = append(sources, rec.Source)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return WindowFairness(sources, window)
}

// WindowFairness is ShortTermFairness over the sequence of successful
// data-frame sources, in capture order. Every source must lie in
// [0, 65535], the frame.Address range.
func WindowFairness(sources []int, window int) (indices []float64, mean float64, err error) {
	if window <= 0 {
		return nil, 0, fmt.Errorf("trace: window %d must be positive", window)
	}
	if len(sources) <= window {
		return nil, 0, nil
	}
	counts := make([]float64, slices.Max(sources)+1)
	// Prime the first window.
	for _, src := range sources[:window] {
		counts[src]++
	}
	indices = append(indices, jain(counts))
	for k := window; k < len(sources); k++ {
		counts[sources[k]]++
		counts[sources[k-window]]--
		indices = append(indices, jain(counts))
	}
	sum := 0.0
	for _, v := range indices {
		sum += v
	}
	return indices, sum / float64(len(indices)), nil
}

// jain is Jain's fairness index for non-negative allocations.
func jain(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// String renders a compact textual report.
func (s *Summary) String() string {
	out := fmt.Sprintf("frames %d over %.2fs  goodput %.3f Mbps  collided %d\n",
		s.Frames, s.SpanS, s.GoodputBp/1e6, s.Collided)
	types := make([]string, 0, len(s.ByType))
	//wlanvet:allow map order re-established: the slice is sort.Strings-ed immediately below before rendering
	for k := range s.ByType {
		types = append(types, k)
	}
	sort.Strings(types)
	for _, k := range types {
		out += fmt.Sprintf("  %-7s %d\n", k, s.ByType[k])
	}
	for _, st := range s.Stations {
		out += fmt.Sprintf("  sta%-3d data %-6d collided %-6d retried %-6d bitsOK %d\n",
			st.Station, st.Data, st.Collided, st.Retries, st.BitsOK)
	}
	return out
}
