package slotsim

// ThroughputMbps returns the run throughput in Mbit/s.
func (r *Result) ThroughputMbps() float64 { return r.Throughput / 1e6 }
