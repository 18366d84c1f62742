package tech

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mut := []func(*Params){
		func(p *Params) { p.VddMin = 0 },
		func(p *Params) { p.VddNominal = p.VddMin },
		func(p *Params) { p.VStep = 0 },
		func(p *Params) { p.VStep = 1 },
		func(p *Params) { p.VthNominal = 0 },
		func(p *Params) { p.VthNominal = 0.7 },
		func(p *Params) { p.FNominalHz = 0 },
		func(p *Params) { p.Alpha = -1 },
		func(p *Params) { p.SubVtSlopeN = 0 },
	}
	for i, f := range mut {
		p := Default()
		f(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestVoltageLevels(t *testing.T) {
	p := Default()
	levels := p.VoltageLevels()
	if len(levels) != 9 {
		t.Fatalf("got %d levels: %v", len(levels), levels)
	}
	if levels[0] != 0.6 || levels[len(levels)-1] != 1.0 {
		t.Fatalf("endpoints wrong: %v", levels)
	}
	for i := 1; i < len(levels); i++ {
		if levels[i] <= levels[i-1] {
			t.Fatalf("levels not ascending: %v", levels)
		}
	}
}

func TestThermalVoltage(t *testing.T) {
	// kT/q at 27 C (300.15 K) is about 25.87 mV.
	got := ThermalVoltage(27)
	if math.Abs(got-0.02587) > 0.0002 {
		t.Fatalf("ThermalVoltage(27C) = %v", got)
	}
}

func TestVthDecreasesWithTemp(t *testing.T) {
	p := Default()
	if p.VthAtTemp(0.25, 100) >= p.VthAtTemp(0.25, 60) {
		t.Fatal("Vth should drop as temperature rises")
	}
	if got := p.VthAtTemp(0.25, p.TRefC); got != 0.25 {
		t.Fatalf("VthAtTemp at reference = %v", got)
	}
}

func TestAlphaPowerDelayNominalIsOne(t *testing.T) {
	p := Default()
	d := p.AlphaPowerDelay(p.VthNominal, p.LeffNominal, p.VddNominal, p.TRatingC)
	if math.Abs(d-1) > 1e-12 {
		t.Fatalf("nominal relative delay = %v, want 1", d)
	}
}

func TestAlphaPowerDelayMonotonicity(t *testing.T) {
	p := Default()
	base := p.AlphaPowerDelay(p.VthNominal, p.LeffNominal, 0.8, p.TRatingC)
	// Higher Vth -> slower.
	if p.AlphaPowerDelay(p.VthNominal+0.05, p.LeffNominal, 0.8, p.TRatingC) <= base {
		t.Fatal("delay should rise with Vth")
	}
	// Longer channel -> slower.
	if p.AlphaPowerDelay(p.VthNominal, p.LeffNominal*1.2, 0.8, p.TRatingC) <= base {
		t.Fatal("delay should rise with Leff")
	}
	// Higher supply -> faster.
	if p.AlphaPowerDelay(p.VthNominal, p.LeffNominal, 1.0, p.TRatingC) >= base {
		t.Fatal("delay should fall with supply voltage")
	}
}

func TestAlphaPowerDelayNearThreshold(t *testing.T) {
	p := Default()
	// A supply at/below threshold must return +Inf, not panic or go
	// negative.
	d := p.AlphaPowerDelay(0.59, p.LeffNominal, 0.6, 60)
	if !math.IsInf(d, 1) {
		t.Fatalf("near-threshold delay = %v, want +Inf", d)
	}
}

func TestLeakageFactorReferencePoint(t *testing.T) {
	p := Default()
	got := p.LeakageFactor(p.VthNominal, p.VddNominal, p.TRefC)
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("reference leakage factor = %v, want 1", got)
	}
}

func TestLeakageFactorMonotonicity(t *testing.T) {
	p := Default()
	base := p.LeakageFactor(p.VthNominal, 0.8, 60)
	if p.LeakageFactor(p.VthNominal-0.03, 0.8, 60) <= base {
		t.Fatal("leakage should rise as Vth drops")
	}
	if p.LeakageFactor(p.VthNominal, 0.8, 95) <= base {
		t.Fatal("leakage should rise with temperature")
	}
	if p.LeakageFactor(p.VthNominal, 1.0, 60) <= base {
		t.Fatal("leakage should rise with supply (DIBL)")
	}
}

func TestLeakageFactorMagnitude(t *testing.T) {
	// Low-Vth devices must gain more leakage than high-Vth devices save:
	// the up/down asymmetry that makes variation increase total leakage.
	p := Default()
	up := p.LeakageFactor(p.VthNominal-0.03, 1.0, 60)
	down := p.LeakageFactor(p.VthNominal+0.03, 1.0, 60)
	if (up - 1) <= (1 - down) {
		t.Fatalf("leakage asymmetry missing: +%v vs -%v", up-1, 1-down)
	}
}

func TestRandomLeakageUplift(t *testing.T) {
	p := Default()
	if got := p.RandomLeakageUplift(0, 60); got != 1 {
		t.Fatalf("zero-sigma uplift = %v", got)
	}
	u := p.RandomLeakageUplift(0.02, 60)
	if u <= 1 || u > 2 {
		t.Fatalf("uplift = %v, want slightly above 1", u)
	}
	if p.RandomLeakageUplift(0.04, 60) <= u {
		t.Fatal("uplift should grow with sigma")
	}
}

// Property: delay is always positive (or +Inf) and leakage always
// positive, for physically plausible inputs.
func TestDelayLeakagePositiveProperty(t *testing.T) {
	p := Default()
	f := func(dvthRaw, vRaw, tRaw float64) bool {
		dvth := math.Mod(math.Abs(dvthRaw), 0.1) - 0.05 // +-50 mV
		v := 0.6 + math.Mod(math.Abs(vRaw), 0.4)        // [0.6, 1.0)
		temp := 40 + math.Mod(math.Abs(tRaw), 80)       // [40, 120)
		if math.IsNaN(dvth) || math.IsNaN(v) || math.IsNaN(temp) {
			return true
		}
		d := p.AlphaPowerDelay(p.VthNominal+dvth, p.LeffNominal, v, temp)
		if !(d > 0) {
			return false
		}
		l := p.LeakageFactor(p.VthNominal+dvth, v, temp)
		return l > 0 && !math.IsInf(l, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLeakageKernelBitIdentical checks the hoisted kernel against the
// reference formulas bit for bit over the voltage ladder, 45-150 C, a
// spread of thresholds, and random-variation sigmas including 0.
func TestLeakageKernelBitIdentical(t *testing.T) {
	p := Default()
	for _, sigma := range []float64{0, 0.005, 0.0125, 0.03} {
		k := p.LeakageKernel(sigma)
		for _, v := range p.VoltageLevels() {
			for tc := 45.0; tc <= 150; tc += 0.75 {
				for _, dvth := range []float64{-0.06, -0.021, 0, 0.013, 0.05} {
					vth := p.VthNominal + dvth
					for _, refW := range []float64{0.017, 0.31, 1.25} {
						want := refW * p.LeakageFactor(vth, v, tc) * p.RandomLeakageUplift(sigma, tc)
						got := k.Static(refW, vth, v, tc)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("sigma %v, %v V, %v C, Vth %v, refW %v: kernel %v, reference %v",
								sigma, v, tc, vth, refW, got, want)
						}
					}
				}
			}
		}
	}
}

// TestDelayKernelBitIdentical checks the hoisted delay kernel against
// AlphaPowerDelay bit for bit over the voltage ladder, the reference and
// rating temperatures plus 45-110 C, and a spread of thresholds and gate
// lengths, including thresholds at or past the overdrive cut, where both
// must return +Inf.
func TestDelayKernelBitIdentical(t *testing.T) {
	p := Default()
	temps := []float64{p.TRefC, p.TRatingC}
	for tc := 45.0; tc <= 110; tc += 1.25 {
		temps = append(temps, tc)
	}
	infs := 0
	for _, tc := range temps {
		k := p.DelayKernel(tc)
		for _, v := range p.VoltageLevels() {
			for _, dvth := range []float64{-0.08, -0.031, 0, 0.017, 0.06, 0.3, 0.33, 0.35, 0.5} {
				vth := p.VthNominal + dvth
				for _, leffScale := range []float64{0.5, 0.87, 1, 1.13, 1.4} {
					leff := p.LeffNominal * leffScale
					want := p.AlphaPowerDelay(vth, leff, v, tc)
					got := k.Delay(p.VthAtTemp(vth, tc), leff/p.LeffNominal, v)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%v C, %v V, Vth %v, Leff %v: kernel %v, reference %v",
							tc, v, vth, leff, got, want)
					}
					if math.IsInf(want, 1) {
						infs++
					}
				}
			}
		}
	}
	if infs == 0 {
		t.Fatal("grid never reached the overdrive cut")
	}
}
