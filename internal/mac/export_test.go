package mac

// Test-only views of policy state.

// Stage returns the current backoff stage.
func (d *StandardDCF) Stage() int { return d.stage }

// Reset returns the current (j, p0).
func (r *RandomReset) Reset() (j int, p0 float64) { return r.j, r.p0 }

// Stage returns the current backoff stage.
func (r *RandomReset) Stage() int { return r.stage }

// CW returns the current (continuous) contention window.
func (is *IdleSense) CW() float64 { return is.cw }

// NHat returns the current estimate of the number of contenders.
func (e *EstimateN) NHat() float64 { return e.nHat }
