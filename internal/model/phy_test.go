package model

import (
	"testing"

	"repro/internal/sim"
)

func TestPaperPHYTimings(t *testing.T) {
	phy := PaperPHY()
	if err := phy.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Data airtime: 20 µs preamble + (272+8000) bits / 54 Mbps ≈ 173.19 µs.
	if got, want := phy.DataTxTime(), sim.Duration(173185); absDur(got-want) > 10 {
		t.Errorf("DataTxTime = %v, want ≈ %v", got, want)
	}
	// ACK airtime: 20 µs preamble + 112 bits / 6 Mbps ≈ 38.67 µs.
	if got, want := phy.ACKTxTime(), sim.Duration(38667); absDur(got-want) > 10 {
		t.Errorf("ACKTxTime = %v, want ≈ %v", got, want)
	}
	// Ts = data + SIFS + ACK + DIFS ≈ 261.9 µs; Tc = data + DIFS ≈ 207.2 µs.
	if got := phy.Ts(); got < 261*sim.Microsecond || got > 263*sim.Microsecond {
		t.Errorf("Ts = %v, want ≈ 261.9µs", got)
	}
	if got := phy.Tc(); got < 206*sim.Microsecond || got > 208*sim.Microsecond {
		t.Errorf("Tc = %v, want ≈ 207.2µs", got)
	}
	// Slot-unit durations: T*_c ≈ 23.0, T*_s ≈ 29.1.
	if got := phy.TcSlots(); got < 22.8 || got > 23.2 {
		t.Errorf("TcSlots = %v, want ≈ 23.0", got)
	}
	if got := phy.TsSlots(); got < 28.9 || got > 29.3 {
		t.Errorf("TsSlots = %v, want ≈ 29.1", got)
	}
	if phy.ACKTimeout() != phy.DIFS {
		t.Errorf("ACKTimeout = %v, want DIFS", phy.ACKTimeout())
	}
}

func absDur(d sim.Duration) sim.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func TestPHYValidateRejectsBadParams(t *testing.T) {
	good := PaperPHY()
	cases := []func(*PHY){
		func(p *PHY) { p.BitRate = 0 },
		func(p *PHY) { p.ControlRate = 0 },
		func(p *PHY) { p.Preamble = -1 },
		func(p *PHY) { p.Payload = 0 },
		func(p *PHY) { p.Header = -1 },
		func(p *PHY) { p.ACKLength = 0 },
		func(p *PHY) { p.Slot = 0 },
		func(p *PHY) { p.SIFS = 0 },
		func(p *PHY) { p.DIFS = -1 },
		func(p *PHY) { p.DIFS = p.SIFS },
		func(p *PHY) { p.DIFS = p.SIFS - 1 },
	}
	for i, mutate := range cases {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid PHY", i)
		}
	}
}

func TestTsMinusTcIsSIFSPlusACK(t *testing.T) {
	phy := PaperPHY()
	if got, want := phy.Ts()-phy.Tc(), phy.SIFS+phy.ACKTxTime(); got != want {
		t.Errorf("Ts-Tc = %v, want %v", got, want)
	}
}
