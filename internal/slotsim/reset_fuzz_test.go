package slotsim_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/slotsim"
	"repro/internal/traffic"
)

// fuzzStepBytes is the encoded size of one fuzzer-chosen run:
//
//	[0:2] station count n = 1 + big-endian uint16 % 300
//	[2]   policy mix: station i runs scheme (b&3 + i·(b>>2&3)) % 4 of DCF,
//	      p-persistent, IdleSense and TORA, so a zero stride gives a pure
//	      population
//	[3]   sources: (b&7)%5 of every 4 stations are Poisson at 100·(1+b>>3&15)
//	      packets/s; bit 7 makes the first of them on/off instead, which
//	      both New and Reset must reject
//	[4]   controller (b%3: none, wTOP, TORA) and seed (b/3)
const fuzzStepBytes = 5

// fuzzMaxSteps bounds the runs one input drives through the arena.
const fuzzMaxSteps = 8

// fuzzConfig decodes one step into a config with freshly built policies
// and controller, so two calls give two independent but identical runs.
func fuzzConfig(b []byte) slotsim.Config {
	phy := model.PaperPHY()
	back := model.PaperBackoff()
	n := 1 + (int(b[0])<<8|int(b[1]))%300
	policies := make([]mac.Policy, n)
	for i := range policies {
		switch (int(b[2]&3) + i*int(b[2]>>2&3)) % 4 {
		case 0:
			policies[i] = mac.NewStandardDCF(16, 1024)
		case 1:
			policies[i] = mac.NewPPersistent(1, 0.02)
		case 2:
			policies[i] = mac.NewIdleSense(mac.IdleSenseConfig{})
		default:
			policies[i] = mac.NewRandomReset(back.CWMin, back.M, 0, 1)
		}
	}
	var arrivals []traffic.Spec
	if perFour := int(b[3]&7) % 5; perFour > 0 {
		arrivals = make([]traffic.Spec, n)
		onoff := b[3]&0x80 != 0
		for i := range arrivals {
			if i%4 >= perFour {
				continue
			}
			arrivals[i] = traffic.Spec{Kind: traffic.Poisson, Rate: float64(100 * (1 + int(b[3]>>3&15))), QueueCap: 8}
			if onoff {
				arrivals[i].Kind = traffic.OnOff
				arrivals[i].OnMean, arrivals[i].OffMean = 10*sim.Millisecond, 10*sim.Millisecond
				onoff = false
			}
		}
	}
	var controller core.Controller
	switch b[4] % 3 {
	case 1:
		controller = core.NewWTOP(core.WTOPConfig{Scale: phy.BitRate})
	case 2:
		controller = core.NewTORA(core.TORAConfig{M: back.M, Scale: phy.BitRate})
	}
	return slotsim.Config{
		Policies:     policies,
		Arrivals:     arrivals,
		Controller:   controller,
		UpdatePeriod: 100 * sim.Millisecond,
		Seed:         int64(b[4] / 3),
	}
}

// fuzzStep encodes one run for the seed corpus.
func fuzzStep(n int, mix, sources, ctrlSeed byte) []byte {
	v := n - 1
	return []byte{byte(v >> 8), byte(v), mix, sources, ctrlSeed}
}

// FuzzResetMatchesNew drives one arena through a fuzzer-chosen sequence
// of configs — station counts, policy mixes, traffic sources and
// controllers changing between runs — and requires every Reset run's
// Result to equal a fresh New run's field for field. Configs New rejects
// must be rejected by Reset too, leaving the arena usable for the next
// step. The seed corpus grows, shrinks and regrows both the station
// count and the source count, so every per-station table is reused
// shorter than its capacity and reallocated larger.
func FuzzResetMatchesNew(f *testing.F) {
	const (
		pure    = 0x00 // stride 0: every station runs the base scheme
		dcf     = 0
		pp      = 1
		idle    = 2
		tora    = 3
		mixAll  = 0x04 // stride 1 over DCF, pp, IdleSense, TORA
		sat     = 0
		poisson = 4 // every station Poisson
		half    = 2 // two of every four stations Poisson
		quarter = 1
		onoff   = 0x80
		noCtrl  = 0
		wtop    = 1
		toraC   = 2
	)
	f.Add(slices.Concat(
		fuzzStep(8, pure|dcf, sat, noCtrl),
		fuzzStep(300, pure|dcf, sat, 3+noCtrl),
		fuzzStep(3, pure|dcf, sat, 6+noCtrl),
		fuzzStep(300, pure|dcf, sat, 9+noCtrl),
	))
	f.Add(slices.Concat(
		fuzzStep(40, pure|dcf, quarter, noCtrl),
		fuzzStep(40, pure|dcf, poisson, 3+noCtrl),
		fuzzStep(40, pure|dcf, sat, 6+noCtrl),
		fuzzStep(200, mixAll|dcf, poisson|0x18, 9+noCtrl),
		fuzzStep(10, mixAll|pp, half, 12+noCtrl),
		fuzzStep(260, mixAll|idle, half|0x08, 15+noCtrl),
	))
	f.Add(slices.Concat(
		fuzzStep(12, pure|pp, sat, wtop),
		fuzzStep(120, pure|tora, sat, 3+toraC),
		fuzzStep(1, pure|idle, poisson, 6+noCtrl),
		fuzzStep(64, 0x08|pp, half, 9+wtop),
		fuzzStep(250, 0x0c|tora, quarter, 12+toraC),
	))
	f.Add(slices.Concat(
		fuzzStep(30, mixAll|dcf, half, wtop),
		fuzzStep(50, mixAll|dcf, half|onoff, 3+wtop),
		fuzzStep(5, pure|pp, poisson, 6+noCtrl),
		fuzzStep(90, mixAll|tora, poisson|onoff, 9+toraC),
		fuzzStep(90, mixAll|tora, poisson, 9+toraC),
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		var arena *slotsim.Simulator
		for step := 0; step < fuzzMaxSteps && len(data) >= fuzzStepBytes; step++ {
			b := data[:fuzzStepBytes]
			data = data[fuzzStepBytes:]
			fresh, newErr := slotsim.New(fuzzConfig(b))
			var resetErr error
			if arena == nil {
				arena, resetErr = slotsim.New(fuzzConfig(b))
			} else {
				resetErr = arena.Reset(fuzzConfig(b))
			}
			if (newErr == nil) != (resetErr == nil) {
				t.Fatalf("step %d % x: New error %v, Reset error %v", step, b, newErr, resetErr)
			}
			if newErr != nil {
				continue
			}
			want := fresh.Run(400 * sim.Millisecond)
			got := arena.Run(400 * sim.Millisecond)
			gv, wv := reflect.ValueOf(*got), reflect.ValueOf(*want)
			for i := range gv.NumField() {
				if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
					t.Fatalf("step %d % x: Reset Result.%s = %v, New gives %v",
						step, b, gv.Type().Field(i).Name, g, w)
				}
			}
		}
	})
}
