package traffic

import "math"

// MeanRate returns the long-run mean arrival rate in packets/second:
// Rate for Poisson, the duty-cycle-weighted rate for OnOff, +Inf for
// Saturated.
func (s Spec) MeanRate() float64 {
	switch s.Kind {
	case Poisson:
		return s.Rate
	case OnOff:
		on := s.OnMean.Seconds()
		return s.Rate * on / (on + s.OffMean.Seconds())
	default:
		return math.Inf(1)
	}
}
