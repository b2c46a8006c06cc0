package mac

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/frame"
	"repro/internal/sim"
)

func TestStandardDCFWindowLadder(t *testing.T) {
	rng := sim.NewRNG(1)
	d := NewStandardDCF(8, 1024)
	if d.CW() != 8 || d.Stage() != 0 {
		t.Fatalf("initial CW = %d stage %d", d.CW(), d.Stage())
	}
	want := []int{16, 32, 64, 128, 256, 512, 1024, 1024, 1024}
	for i, w := range want {
		d.OnFailure(rng)
		if d.CW() != w {
			t.Errorf("after %d failures CW = %d, want %d", i+1, d.CW(), w)
		}
	}
	d.OnSuccess(rng)
	if d.CW() != 8 {
		t.Errorf("after success CW = %d, want CWmin", d.CW())
	}
}

func TestStandardDCFBackoffInWindow(t *testing.T) {
	rng := sim.NewRNG(2)
	d := NewStandardDCF(8, 1024)
	for i := 0; i < 1000; i++ {
		b := d.NextBackoff(rng)
		if b < 0 || b >= d.CW() {
			t.Fatalf("backoff %d outside [0,%d)", b, d.CW())
		}
	}
	if got := d.AttemptProbability(); math.Abs(got-2.0/9) > 1e-12 {
		t.Errorf("AttemptProbability = %v, want 2/9", got)
	}
	d.OnControl(frame.Control{Scheme: frame.ControlWTOP, P: 0.5}) // must be ignored
	if d.CW() != 8 {
		t.Error("DCF reacted to a control broadcast")
	}
}

func TestStandardDCFPanicsOnBadBounds(t *testing.T) {
	for _, c := range [][2]int{{0, 8}, {16, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v accepted", c)
				}
			}()
			NewStandardDCF(c[0], c[1])
		}()
	}
}

func TestPPersistentGeometricMean(t *testing.T) {
	rng := sim.NewRNG(3)
	p := NewPPersistent(1, 0.1)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(p.NextBackoff(rng))
	}
	mean := sum / n
	want := (1 - 0.1) / 0.1
	if math.Abs(mean-want) > 0.25 {
		t.Errorf("mean backoff %v, want %v", mean, want)
	}
}

func TestPPersistentControlMapping(t *testing.T) {
	// Lemma 1: station with weight w maps broadcast p to
	// w·p/(1+(w−1)·p).
	for _, w := range []float64{1, 2, 3} {
		p := NewPPersistent(w, 0.1)
		p.OnControl(frame.Control{Scheme: frame.ControlWTOP, P: 0.2})
		want := w * 0.2 / (1 + (w-1)*0.2)
		if math.Abs(p.AttemptProbability()-want) > 1e-12 {
			t.Errorf("w=%v: p_t = %v, want %v", w, p.AttemptProbability(), want)
		}
	}
	// Non-wTOP broadcasts are ignored.
	p := NewPPersistent(1, 0.1)
	p.OnControl(frame.Control{Scheme: frame.ControlTORA, P0: 0.9})
	if p.AttemptProbability() != 0.1 {
		t.Error("p-persistent adopted a TORA broadcast")
	}
	// Success/failure must not change state.
	rng := sim.NewRNG(1)
	p.OnSuccess(rng)
	p.OnFailure(rng)
	if p.AttemptProbability() != 0.1 {
		t.Error("outcome notifications changed p")
	}
}

func TestPPersistentClamping(t *testing.T) {
	p := NewPPersistent(1, 0)
	if p.AttemptProbability() <= 0 {
		t.Error("initial p not floored above zero")
	}
	p.SetAttemptProbability(2)
	if p.AttemptProbability() > 0.999 {
		t.Error("p not capped below 1")
	}
	p.OnControl(frame.Control{Scheme: frame.ControlWTOP, P: 0})
	if p.AttemptProbability() < minP {
		t.Error("control broadcast drove p below minP")
	}
}

func TestPPersistentPanicsOnBadWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("weight 0 accepted")
		}
	}()
	NewPPersistent(0, 0.1)
}

func TestRandomResetFailurePath(t *testing.T) {
	rng := sim.NewRNG(4)
	r := NewRandomReset(8, 7, 0, 1)
	for i := 1; i <= 10; i++ {
		r.OnFailure(rng)
		want := i
		if want > 7 {
			want = 7
		}
		if r.Stage() != want {
			t.Errorf("after %d failures stage = %d, want %d", i, r.Stage(), want)
		}
	}
}

func TestRandomResetDegeneratesToDCF(t *testing.T) {
	// With p0 = 1, j = 0 a success always returns to stage 0.
	rng := sim.NewRNG(5)
	r := NewRandomReset(8, 7, 0, 1)
	r.OnFailure(rng)
	r.OnFailure(rng)
	r.OnSuccess(rng)
	if r.Stage() != 0 {
		t.Errorf("stage = %d, want 0", r.Stage())
	}
}

func TestRandomResetResetDistribution(t *testing.T) {
	// With (j=2, p0=0.6): success lands on stage 2 w.p. 0.6, else
	// uniformly on {3,…,7}.
	rng := sim.NewRNG(6)
	r := NewRandomReset(8, 7, 2, 0.6)
	counts := map[int]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		r.OnSuccess(rng)
		counts[r.Stage()]++
	}
	if got := float64(counts[2]) / n; math.Abs(got-0.6) > 0.01 {
		t.Errorf("P(stage 2) = %v, want 0.6", got)
	}
	share := 0.4 / 5
	for s := 3; s <= 7; s++ {
		if got := float64(counts[s]) / n; math.Abs(got-share) > 0.01 {
			t.Errorf("P(stage %d) = %v, want %v", s, got, share)
		}
	}
	for s := 0; s < 2; s++ {
		if counts[s] != 0 {
			t.Errorf("stage %d reached %d times; reset must never go below j", s, counts[s])
		}
	}
}

func TestRandomResetSetResetClamps(t *testing.T) {
	r := NewRandomReset(8, 7, 0, 1)
	r.SetReset(-3, -1)
	if j, p0 := r.Reset(); j != 0 || p0 != 0 {
		t.Errorf("clamped to (%d, %v), want (0, 0)", j, p0)
	}
	r.SetReset(99, 2)
	if j, p0 := r.Reset(); j != 6 || p0 != 1 {
		t.Errorf("clamped to (%d, %v), want (6, 1)", j, p0)
	}
}

func TestRandomResetControl(t *testing.T) {
	r := NewRandomReset(8, 7, 0, 1)
	r.OnControl(frame.Control{Scheme: frame.ControlTORA, P0: 0.25, Stage: 3})
	if j, p0 := r.Reset(); j != 3 || math.Abs(p0-0.25) > 1e-12 {
		t.Errorf("control not adopted: (%d, %v)", j, p0)
	}
	r.OnControl(frame.Control{Scheme: frame.ControlWTOP, P: 0.9})
	if j, _ := r.Reset(); j != 3 {
		t.Error("RandomReset adopted a wTOP broadcast")
	}
	if got := r.CW(); got != 8<<3 {
		// Stage was left at 0; CW uses the *stage*, not j.
		t.Logf("CW = %d (stage %d)", got, r.Stage())
	}
}

func TestRandomResetBackoffInWindow(t *testing.T) {
	prop := func(seed int64, failures uint8) bool {
		rng := sim.NewRNG(seed)
		r := NewRandomReset(8, 7, 1, 0.5)
		for i := 0; i < int(failures%12); i++ {
			r.OnFailure(rng)
		}
		b := r.NextBackoff(rng)
		return b >= 0 && b < r.CW() && r.CW() <= 1024
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIdleSenseAIMD(t *testing.T) {
	is := NewIdleSense()
	start := is.CW()
	// Far too many idle slots observed → multiplicative decrease.
	for i := 0; i < idleMaxTrans; i++ {
		is.ObserveTransmission(50)
	}
	if is.CW() >= start {
		t.Errorf("CW did not decrease on idle channel: %v -> %v", start, is.CW())
	}
	// Too few idle slots → additive increase.
	low := is.CW()
	for i := 0; i < idleMaxTrans; i++ {
		is.ObserveTransmission(0)
	}
	if is.CW() <= low {
		t.Errorf("CW did not increase on busy channel: %v -> %v", low, is.CW())
	}
}

func TestIdleSenseUpdatesOnlyPerWindow(t *testing.T) {
	is := NewIdleSense()
	start := is.CW()
	for i := 0; i < 4; i++ {
		is.ObserveTransmission(100)
	}
	if is.CW() != start {
		t.Error("CW changed before idleMaxTrans observations")
	}
	is.ObserveTransmission(100)
	if is.CW() == start {
		t.Error("CW unchanged after idleMaxTrans observations")
	}
}

// Property: the window stays within [idleCWMin, idleCWMax] under any
// stream of observations. Each draw is a run of up to 1023 estimation
// windows, idle or busy by its top bit, so streams reach both bounds.
func TestIdleSenseBounds(t *testing.T) {
	prop := func(runs []uint16) bool {
		is := NewIdleSense()
		for _, r := range runs {
			idle := float64(r>>15) * 1000
			for i := 0; i < idleMaxTrans*int(r%1024); i++ {
				is.ObserveTransmission(idle)
				if is.CW() < idleCWMin || is.CW() > idleCWMax {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestIdleSenseClampsAtPaperWindow pins the published window bounds:
// a persistently idle medium shrinks CW to exactly 4, a persistently
// busy one grows it to exactly 4096.
func TestIdleSenseClampsAtPaperWindow(t *testing.T) {
	is := NewIdleSense()
	for i := 0; i < 5000; i++ {
		is.ObserveTransmission(1000)
	}
	if is.CW() != 4 {
		t.Errorf("CW %v on an idle medium, want the floor 4", is.CW())
	}
	for i := 0; i < 5000; i++ {
		is.ObserveTransmission(0)
	}
	if is.CW() != 4096 {
		t.Errorf("CW %v on a busy medium, want the cap 4096", is.CW())
	}
}

func TestIdleSenseConvergesTowardTarget(t *testing.T) {
	// Closed loop against a toy medium model: with n stations each using
	// attempt probability 2/(CW+1), mean idle slots between transmissions
	// is (1−q)/q with q = 1−(1−τ)^n. IdleSense should drive this near its
	// target.
	const n = 20
	is := NewIdleSense()
	for iter := 0; iter < 5000; iter++ {
		tau := is.AttemptProbability()
		q := 1 - math.Pow(1-tau, n)
		idle := (1 - q) / q
		is.ObserveTransmission(idle)
	}
	tau := is.AttemptProbability()
	q := 1 - math.Pow(1-tau, n)
	idle := (1 - q) / q
	if math.Abs(idle-idleTarget) > 1.2 {
		t.Errorf("converged idle slots %v, want near target %v", idle, idleTarget)
	}
}

func TestIdleSenseMisc(t *testing.T) {
	is := NewIdleSense()
	rng := sim.NewRNG(8)
	is.OnSuccess(rng)
	is.OnFailure(rng)
	is.OnControl(frame.Control{Scheme: frame.ControlWTOP, P: 0.5})
	b := is.NextBackoff(rng)
	if b < 0 || b >= int(math.Round(is.CW())) {
		t.Errorf("backoff %d outside window %v", b, is.CW())
	}
}

// Interface conformance checks.
var (
	_ Policy          = (*StandardDCF)(nil)
	_ Policy          = (*PPersistent)(nil)
	_ Policy          = (*RandomReset)(nil)
	_ Policy          = (*IdleSense)(nil)
	_ AttemptReporter = (*StandardDCF)(nil)
	_ AttemptReporter = (*PPersistent)(nil)
	_ AttemptReporter = (*RandomReset)(nil)
	_ AttemptReporter = (*IdleSense)(nil)
	_ MediumObserver  = (*IdleSense)(nil)
)
