package experiments

import (
	"fmt"
	"strings"

	"vasched/internal/abb"
	"vasched/internal/chip"
	"vasched/internal/core"
	"vasched/internal/sched"
)

// ExtABBResult is the Adaptive-Body-Bias interaction study. Humenay et
// al. (the paper's related work) propose ABB/ASV to *reduce* variation;
// the paper proposes to *exploit* it. This experiment quantifies the
// interplay: ABB compresses the frequency spread (at a leakage cost), and
// with less spread left to exploit, the variation-aware scheduler's
// advantage over Random shrinks — the two techniques are complementary,
// exactly as the paper argues.
type ExtABBResult struct {
	// Spreads before/after biasing (max/min core ratios).
	FreqSpreadBase, FreqSpreadABB float64
	LeakSpreadBase, LeakSpreadABB float64
	// TotalStaticBase/ABB are chip static power sums at the top level
	// (manufacturer tables), showing ABB's leakage bill.
	TotalStaticBase, TotalStaticABB float64
	// SchedGainBase/ABB are VarF&AppIPC's MIPS gain over Random (in
	// percent) on the base and biased chips, NUniFreq, 8 threads.
	SchedGainBasePct, SchedGainABBPct float64
}

// extABBGrid runs Random and VarF&AppIPC at 8 threads in NUniFreq on
// die 0, as is (param 0) and ABB-biased (param 1).
var extABBGrid = timelineGrid{kernel: "timeline-ext-abb", dies: 1, stride: 41, tune: extABBTune, cells: []sweepCell{
	{policy: sched.NameRandom, threads: 8, mode: core.ModeNUniFreq},
	{policy: sched.NameVarFAppIPC, threads: 8, mode: core.ModeNUniFreq},
	{policy: sched.NameRandom, threads: 8, mode: core.ModeNUniFreq, param: 1},
	{policy: sched.NameVarFAppIPC, threads: 8, mode: core.ModeNUniFreq, param: 1},
}}

// extABBTune swaps the biased die into the param-1 cells.
func extABBTune(e *Env, cell sweepCell, cfg *core.Config) (float64, error) {
	var err error
	if cell.param == 1 {
		cfg.Chip, err = e.abbDie()
	}
	return e.SimMS, err
}

// abbDie returns die 0 rebuilt under the default body-bias
// configuration, built once per Env (and shared by its shallow copies).
func (e *Env) abbDie() (*chip.Chip, error) {
	vc := e.variants
	vc.Lock()
	defer vc.Unlock()
	if vc.abb == nil {
		base, err := e.Chip(0)
		if err != nil {
			return nil, err
		}
		if vc.abb, _, err = abb.Rebuild(base, e.DelayCfg, e.Power, e.ThermalCfg, abb.DefaultConfig()); err != nil {
			return nil, err
		}
	}
	return vc.abb, nil
}

// ExtABB runs the study on die 0.
func ExtABB(e *Env) (*ExtABBResult, error) {
	baseC, err := e.Chip(0)
	if err != nil {
		return nil, err
	}
	biased, err := e.abbDie()
	if err != nil {
		return nil, err
	}

	res := &ExtABBResult{}
	res.FreqSpreadBase, res.LeakSpreadBase = abb.Spread(baseC)
	res.FreqSpreadABB, res.LeakSpreadABB = abb.Spread(biased)
	top := len(baseC.Levels) - 1
	for coreID := 0; coreID < baseC.NumCores(); coreID++ {
		res.TotalStaticBase += baseC.StaticAtLevel[coreID][top]
		res.TotalStaticABB += biased.StaticAtLevel[coreID][top]
	}

	trials, err := extABBGrid.run(e)
	if err != nil {
		return nil, err
	}
	// VarF&AppIPC's MIPS gain over Random on each die.
	mips := func(cell int) float64 { return mean(trials[cell], func(t trialBlob) float64 { return t.MIPS }) }
	res.SchedGainBasePct = (mips(1)/mips(0) - 1) * 100
	res.SchedGainABBPct = (mips(3)/mips(2) - 1) * 100
	return res, nil
}

// Render formats the study.
func (r *ExtABBResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension: Adaptive Body Bias (Humenay et al.) vs variation-aware scheduling\n")
	fmt.Fprintf(&b, "%-34s %10s %10s\n", "", "base die", "with ABB")
	fmt.Fprintf(&b, "%-34s %10.2f %10.2f\n", "core frequency spread (max/min)", r.FreqSpreadBase, r.FreqSpreadABB)
	fmt.Fprintf(&b, "%-34s %10.2f %10.2f\n", "core static-power spread", r.LeakSpreadBase, r.LeakSpreadABB)
	fmt.Fprintf(&b, "%-34s %9.1fW %9.1fW\n", "total core static power @1V", r.TotalStaticBase, r.TotalStaticABB)
	fmt.Fprintf(&b, "%-34s %9.1f%% %9.1f%%\n", "VarF&AppIPC gain over Random", r.SchedGainBasePct, r.SchedGainABBPct)
	b.WriteString("(ABB narrows the spread the scheduler exploits — the techniques are complementary)\n")
	return b.String()
}
