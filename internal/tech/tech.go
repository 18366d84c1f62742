// Package tech holds the 32 nm technology parameters and device-level
// formulas shared by the delay, power, and thermal models: the alpha-power
// MOSFET delay law, the subthreshold/gate leakage dependence on threshold
// voltage and temperature, and the chip-wide voltage/frequency envelope
// from the paper's Table 4.
package tech

import (
	"fmt"
	"math"
)

// Physical constants.
const (
	boltzmann      = 1.380649e-23 // J/K
	electronCharge = 1.602177e-19 // C
)

// Params bundles the technology constants. The defaults in Default()
// correspond to the paper's 32 nm configuration (Table 4).
type Params struct {
	// VthNominal is the mean threshold voltage in volts at TRef (the paper
	// uses 250 mV at 60 C).
	VthNominal float64
	// VthTempCoeff is the decrease of Vth in volts per kelvin of
	// temperature increase.
	VthTempCoeff float64
	// TRefC is the reference temperature in Celsius at which VthNominal is
	// specified.
	TRefC float64
	// VddNominal and VddMin bound the supply range (1.0 V and 0.6 V).
	VddNominal float64
	VddMin     float64
	// VStep is the voltage-ladder step for DVFS levels.
	VStep float64
	// FNominalHz is the nominal chip frequency at VddNominal with nominal
	// process parameters at the rating temperature (4 GHz).
	FNominalHz float64
	// TRatingC is the temperature in Celsius at which core frequencies are
	// rated (the paper measures Fmax at the hottest observed ~95 C).
	TRatingC float64
	// Alpha is the exponent of the alpha-power delay law (~1.3 for
	// velocity-saturated short-channel devices).
	Alpha float64
	// SubVtSlopeN is the subthreshold slope ideality factor n in
	// I ~ exp(-Vth/(n kT/q)).
	SubVtSlopeN float64
	// DIBL is the drain-induced barrier lowering coefficient: effective
	// Vth drops by DIBL volts per volt of Vdd.
	DIBL float64
	// LeffNominal is the nominal effective gate length in meters.
	LeffNominal float64
	// VthRollOff couples the two variation parameters through the
	// short-channel effect: a device whose gate is shorter than nominal
	// by a fraction x sees its threshold reduced by VthRollOff*x volts.
	// This makes fast (short-Leff) regions leaky, the correlation the
	// paper's Figure 6 exhibits.
	VthRollOff float64
	// MemLatency is the main-memory access latency in seconds (400 cycles
	// at the 4 GHz nominal frequency).
	MemLatency float64
}

// Default returns the paper's 32 nm technology configuration.
func Default() Params {
	return Params{
		VthNominal:   0.250,
		VthTempCoeff: 0.0005, // 0.5 mV/K
		TRefC:        60,
		VddNominal:   1.0,
		VddMin:       0.6,
		VStep:        0.05,
		FNominalHz:   4e9,
		TRatingC:     95,
		Alpha:        1.5,
		SubVtSlopeN:  2.6,
		DIBL:         0.15,
		LeffNominal:  13e-9,
		VthRollOff:   0.25,
		MemLatency:   100e-9, // 400 cycles @ 4 GHz
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.VddMin <= 0 || p.VddNominal <= p.VddMin {
		return fmt.Errorf("tech: invalid Vdd range [%v, %v]", p.VddMin, p.VddNominal)
	}
	if p.VStep <= 0 || p.VStep > p.VddNominal-p.VddMin {
		return fmt.Errorf("tech: invalid voltage step %v", p.VStep)
	}
	if p.VthNominal <= 0 || p.VthNominal >= p.VddMin {
		return fmt.Errorf("tech: Vth %v outside (0, VddMin)", p.VthNominal)
	}
	if p.FNominalHz <= 0 || p.Alpha <= 0 || p.SubVtSlopeN <= 0 {
		return fmt.Errorf("tech: non-positive frequency/alpha/slope")
	}
	return nil
}

// VoltageLevels returns the DVFS voltage ladder from VddMin to VddNominal
// inclusive, in ascending order.
func (p Params) VoltageLevels() []float64 {
	var levels []float64
	for v := p.VddMin; v < p.VddNominal+p.VStep/2; v += p.VStep {
		levels = append(levels, math.Round(v*1000)/1000)
	}
	if last := levels[len(levels)-1]; last != p.VddNominal {
		levels[len(levels)-1] = p.VddNominal
	}
	return levels
}

// EffectiveVth returns the threshold voltage after applying the
// short-channel roll-off for a device with gate length leff: shorter
// channels have lower thresholds (faster and leakier).
func (p Params) EffectiveVth(vth, leff float64) float64 {
	return vth + p.VthRollOff*(leff-p.LeffNominal)/p.LeffNominal
}

// ThermalVoltage returns kT/q in volts at the given temperature in Celsius.
func ThermalVoltage(tempC float64) float64 {
	return boltzmann * (tempC + 273.15) / electronCharge
}

// VthAtTemp returns the threshold voltage at tempC for a device whose
// threshold at TRefC is vthRef. Vth decreases as temperature rises.
func (p Params) VthAtTemp(vthRef, tempC float64) float64 {
	return vthRef - p.VthTempCoeff*(tempC-p.TRefC)
}

// AlphaPowerDelay returns the relative gate delay of a device with
// threshold vth and effective length leff at supply v and temperature
// tempC, normalised so that the nominal device at VddNominal and TRatingC
// has delay 1. Delay follows the alpha-power law
//
//	d ~ Leff * V / (V - Vth)^alpha
//
// with carrier mobility degrading as temperature rises (T^1.5 scattering),
// which slows circuits at high temperature. It is the reference form of
// DelayKernel, which the characterisation loop uses.
func (p Params) AlphaPowerDelay(vth, leff, v, tempC float64) float64 {
	vthT := p.VthAtTemp(vth, tempC)
	overdrive := v - vthT
	if overdrive <= 0.02 {
		// The device no longer switches usefully; return a huge delay so
		// callers treat this operating point as infeasible rather than
		// dividing by zero.
		return math.Inf(1)
	}
	mobility := math.Pow((p.TRatingC+273.15)/(tempC+273.15), 1.5)
	nomVth := p.VthAtTemp(p.VthNominal, p.TRatingC)
	nomOver := p.VddNominal - nomVth
	num := (leff / p.LeffNominal) * (v / math.Pow(overdrive, p.Alpha))
	den := p.VddNominal / math.Pow(nomOver, p.Alpha)
	return num / den / mobility
}

// DelayKernel evaluates AlphaPowerDelay at one temperature on the
// characterisation hot path: the mobility factor and the nominal device's
// normalising delay are computed once, leaving one Pow per path and
// supply. Every expression keeps the reference's shape and operation
// order, so the results are bit-identical to AlphaPowerDelay.
type DelayKernel struct {
	alpha float64
	// mobility is the T^1.5 mobility factor at the kernel's temperature;
	// den is VddNominal / (nominal overdrive at TRatingC)^Alpha.
	mobility, den float64
}

// DelayKernel returns the kernel for temperature tempC.
func (p Params) DelayKernel(tempC float64) DelayKernel {
	nomVth := p.VthAtTemp(p.VthNominal, p.TRatingC)
	nomOver := p.VddNominal - nomVth
	return DelayKernel{
		alpha:    p.Alpha,
		mobility: math.Pow((p.TRatingC+273.15)/(tempC+273.15), 1.5),
		den:      p.VddNominal / math.Pow(nomOver, p.Alpha),
	}
}

// Delay returns AlphaPowerDelay(vth, leff, v, tempC) at the kernel's
// temperature tempC, given vthT = VthAtTemp(vth, tempC) and
// leffRel = leff/LeffNominal.
func (k *DelayKernel) Delay(vthT, leffRel, v float64) float64 {
	overdrive := v - vthT
	if overdrive <= 0.02 {
		return math.Inf(1)
	}
	num := leffRel * (v / math.Pow(overdrive, k.alpha))
	return num / k.den / k.mobility
}

// LeakageFactor returns the relative subthreshold leakage current of a
// device with threshold vth at supply v and temperature tempC, normalised
// to 1 for the nominal device at VddNominal and TRefC. It captures the
// three dependences that drive the paper's core-to-core power variation:
// exponential growth as Vth drops, exponential growth with temperature
// (both through kT/q and the Vth temperature coefficient), and
// DIBL-mediated supply dependence.
func (p Params) LeakageFactor(vth, v, tempC float64) float64 {
	vt := ThermalVoltage(tempC)
	vtRef := ThermalVoltage(p.TRefC)
	vthT := p.VthAtTemp(vth, tempC)
	vthRef := p.VthNominal
	tK := tempC + 273.15
	tRefK := p.TRefC + 273.15
	expTerm := math.Exp((-vthT+p.DIBL*v)/(p.SubVtSlopeN*vt)) /
		math.Exp((-vthRef+p.DIBL*p.VddNominal)/(p.SubVtSlopeN*vtRef))
	// T^2 prefactor from the subthreshold current equation; linear V from
	// the drain term.
	return (tK * tK) / (tRefK * tRefK) * (v / p.VddNominal) * expTerm
}

// RandomLeakageUplift returns the factor by which within-die random Vth
// variation with standard deviation sigmaVth inflates the expected leakage
// of a large block relative to a variation-free block. Leakage is
// exponential in -Vth, so a normally distributed Vth yields a lognormal
// leakage whose mean exceeds the leakage at the mean threshold:
//
//	E[exp(-dVth/S)] = exp(sigma^2 / (2 S^2)),  S = n kT/q.
//
// This is the mechanism by which variation increases total chip leakage
// (paper Section 3).
func (p Params) RandomLeakageUplift(sigmaVth, tempC float64) float64 {
	s := p.SubVtSlopeN * ThermalVoltage(tempC)
	return math.Exp(sigmaVth * sigmaVth / (2 * s * s))
}

// LeakageKernel evaluates cached block leakage on the hot path: the
// per-block static power refW*LeakageFactor(vth, v, T)*
// RandomLeakageUplift(sigmaRan, T) for one die's random-variation sigma,
// with the temperature-independent terms hoisted out and kT/q computed
// once per call. Every expression keeps the shape of the two reference
// functions, so the results are bit-identical to them.
type LeakageKernel struct {
	vthTempCoeff, tRefC, dibl, slopeN, vddNominal float64
	// sigma2 is sigmaRan squared; tRefK2 is the squared reference
	// temperature in kelvin; den is LeakageFactor's reference-point
	// exponential.
	sigma2, tRefK2, den float64
}

// LeakageKernel returns the kernel for a die whose within-die random Vth
// variation has standard deviation sigmaRan.
func (p Params) LeakageKernel(sigmaRan float64) LeakageKernel {
	vtRef := ThermalVoltage(p.TRefC)
	tRefK := p.TRefC + 273.15
	return LeakageKernel{
		vthTempCoeff: p.VthTempCoeff,
		tRefC:        p.TRefC,
		dibl:         p.DIBL,
		slopeN:       p.SubVtSlopeN,
		vddNominal:   p.VddNominal,
		sigma2:       sigmaRan * sigmaRan,
		tRefK2:       tRefK * tRefK,
		den:          math.Exp((-p.VthNominal + p.DIBL*p.VddNominal) / (p.SubVtSlopeN * vtRef)),
	}
}

// Static returns refW*LeakageFactor(vth, v, tempC)*
// RandomLeakageUplift(sigmaRan, tempC): the static power of a block with
// nominal share refW and effective threshold vth at supply v and
// temperature tempC.
func (k *LeakageKernel) Static(refW, vth, v, tempC float64) float64 {
	vt := ThermalVoltage(tempC)
	vthT := vth - k.vthTempCoeff*(tempC-k.tRefC)
	tK := tempC + 273.15
	expTerm := math.Exp((-vthT+k.dibl*v)/(k.slopeN*vt)) / k.den
	factor := (tK * tK) / k.tRefK2 * (v / k.vddNominal) * expTerm
	s := k.slopeN * vt
	return refW * factor * math.Exp(k.sigma2/(2*s*s))
}
