package experiments

import (
	"fmt"
	"strings"

	"vasched/internal/core"
	"vasched/internal/pm"
	"vasched/internal/sched"
)

// Combo is one (scheduler, power manager) pairing of the paper's Table 1
// bottom section.
type Combo struct {
	Sched   string
	Manager string
}

// Label renders the paper's "Sched+Manager" name.
func (c Combo) Label() string { return c.Sched + "+" + c.Manager }

// The paper's four evaluated combinations.
var paperCombos = []Combo{
	{sched.NameRandom, pm.NameFoxton},
	{sched.NameVarFAppIPC, pm.NameFoxton},
	{sched.NameVarFAppIPC, pm.NameLinOpt},
	{sched.NameVarFAppIPC, pm.NameSAnn},
}

// DVFSCell is the mean outcome of one (combo, thread-count) cell.
type DVFSCell struct {
	Threads      int
	Combo        Combo
	PowerW       float64
	MIPS         float64
	WeightedTP   float64
	EDSquared    float64
	WeightedED2  float64
	DeviationPct float64
}

// The DVFS sweep axes: Figures 11 and 13 sweep thread counts in the
// Cost-Performance environment, Figure 12 the three environments at 20
// threads.
var (
	dvfsThreads = []int{4, 8, 16, 20}
	fig12Envs   = []PowerEnv{LowPower, CostPerformance, HighPerformance}
)

// comboCells crosses power environments (major), the paper's combos, and
// thread counts (minor) into NUniFreq+DVFS cells.
func comboCells(envs []PowerEnv, threads []int, obj pm.Objective) []sweepCell {
	var cells []sweepCell
	for _, env := range envs {
		for _, c := range paperCombos {
			for _, n := range threads {
				cells = append(cells, sweepCell{
					policy: c.Sched, threads: n, mode: core.ModeDVFS,
					manager: c.Manager, obj: obj, env: env,
				})
			}
		}
	}
	return cells
}

// dvfsSweep runs a NUniFreq+DVFS grid and averages each cell over its
// dies and trials, grouping cells by combo label in grid order.
func dvfsSweep(e *Env, g *timelineGrid) (map[string][]DVFSCell, error) {
	trials, err := g.run(e)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]DVFSCell, len(paperCombos))
	for i, cell := range g.cells {
		ts := trials[i]
		combo := Combo{Sched: cell.policy, Manager: cell.manager}
		out[combo.Label()] = append(out[combo.Label()], DVFSCell{
			Threads: cell.threads, Combo: combo,
			PowerW:     mean(ts, func(t trialBlob) float64 { return t.PowerW }),
			MIPS:       mean(ts, func(t trialBlob) float64 { return t.MIPS }),
			WeightedTP: mean(ts, func(t trialBlob) float64 { return t.WeightedTP }),
			EDSquared:  mean(ts, func(t trialBlob) float64 { return t.EDSquared }),
			WeightedED2: mean(ts, func(t trialBlob) float64 {
				return t.PowerW / (t.WeightedTP * t.WeightedTP * t.WeightedTP)
			}),
			DeviationPct: mean(ts, func(t trialBlob) float64 { return t.DevPct }),
		})
	}
	return out, nil
}

// DVFSSweepResult holds a rendered DVFS sweep.
type DVFSSweepResult struct {
	Title    string
	Env      PowerEnv
	Baseline string
	Combos   []Combo
	Threads  []int
	Cells    map[string][]DVFSCell
	Weighted bool
}

// Rel returns metric(combo)/metric(baseline) at thread index ti.
func (r *DVFSSweepResult) Rel(combo string, ti int, metric func(DVFSCell) float64) float64 {
	base := metric(r.Cells[r.Baseline][ti])
	if base == 0 {
		return 0
	}
	return metric(r.Cells[combo][ti]) / base
}

// Fig11 reproduces Figure 11: throughput and ED^2 of the four algorithm
// combinations in the Cost-Performance environment, for 4-20 threads,
// relative to Random+Foxton*.
func Fig11(e *Env) (*DVFSSweepResult, error) {
	return costPerfFigure(e, &fig11Grid, "Figure 11: NUniFreq+DVFS throughput & ED^2 (Cost-Performance, 75 W)", false)
}

// Fig13 reproduces Figure 13: the Figure 11 experiment re-run with
// weighted throughput as the optimisation goal, reporting weighted
// throughput and weighted ED^2.
func Fig13(e *Env) (*DVFSSweepResult, error) {
	return costPerfFigure(e, &fig13Grid, "Figure 13: weighted throughput & weighted ED^2 (Cost-Performance, 75 W)", true)
}

// costPerfFigure runs a Cost-Performance thread-count sweep (Figures 11
// and 13).
func costPerfFigure(e *Env, g *timelineGrid, title string, weighted bool) (*DVFSSweepResult, error) {
	cells, err := dvfsSweep(e, g)
	if err != nil {
		return nil, err
	}
	return &DVFSSweepResult{
		Title:    title,
		Env:      CostPerformance,
		Baseline: paperCombos[0].Label(),
		Combos:   paperCombos,
		Threads:  dvfsThreads,
		Cells:    cells,
		Weighted: weighted,
	}, nil
}

// Render prints the figure's two panels.
func (r *DVFSSweepResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Title + "\n")
	tpMetric := func(c DVFSCell) float64 { return c.MIPS }
	edMetric := func(c DVFSCell) float64 { return c.EDSquared }
	tpLabel, edLabel := "(a) MIPS", "(b) ED^2"
	if r.Weighted {
		tpMetric = func(c DVFSCell) float64 { return c.WeightedTP }
		edMetric = func(c DVFSCell) float64 { return c.WeightedED2 }
		tpLabel, edLabel = "(a) weighted TP", "(b) weighted ED^2"
	}
	r.renderPanel(&b, tpLabel, tpMetric)
	r.renderPanel(&b, edLabel, edMetric)
	return b.String()
}

func (r *DVFSSweepResult) renderPanel(b *strings.Builder, label string, metric func(DVFSCell) float64) {
	fmt.Fprintf(b, "%s (relative to %s)\n", label, r.Baseline)
	fmt.Fprintf(b, "%-10s", "threads")
	for _, c := range r.Combos {
		fmt.Fprintf(b, " %24s", c.Label())
	}
	b.WriteString("\n")
	for ti, n := range r.Threads {
		fmt.Fprintf(b, "%-10d", n)
		for _, c := range r.Combos {
			fmt.Fprintf(b, " %24.3f", r.Rel(c.Label(), ti, metric))
		}
		b.WriteString("\n")
	}
}

// Fig12Result reproduces Figure 12: 20-thread throughput of the four
// combinations across the three power environments.
type Fig12Result struct {
	Baseline string
	Combos   []Combo
	Envs     []PowerEnv
	// Cells[comboLabel][envIndex]
	Cells map[string][]DVFSCell
}

// Fig12 runs the environment sweep.
func Fig12(e *Env) (*Fig12Result, error) {
	cells, err := dvfsSweep(e, &fig12Grid)
	if err != nil {
		return nil, err
	}
	return &Fig12Result{
		Baseline: paperCombos[0].Label(),
		Combos:   paperCombos,
		Envs:     fig12Envs,
		Cells:    cells,
	}, nil
}

// Rel returns MIPS(combo)/MIPS(baseline) for environment index ei.
func (r *Fig12Result) Rel(combo string, ei int) float64 {
	base := r.Cells[r.Baseline][ei].MIPS
	if base == 0 {
		return 0
	}
	return r.Cells[combo][ei].MIPS / base
}

// Render formats the environment sweep.
func (r *Fig12Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 12: 20-thread MIPS vs power target (relative to " + r.Baseline + ")\n")
	fmt.Fprintf(&b, "%-20s", "power target")
	for _, c := range r.Combos {
		fmt.Fprintf(&b, " %24s", c.Label())
	}
	b.WriteString("\n")
	for ei, env := range r.Envs {
		fmt.Fprintf(&b, "%-20s", fmt.Sprintf("%s (%.0fW)", env.Name, env.PTargetW))
		for _, c := range r.Combos {
			fmt.Fprintf(&b, " %24.3f", r.Rel(c.Label(), ei))
		}
		b.WriteString("\n")
	}
	return b.String()
}
