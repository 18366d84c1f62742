package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"vasched/internal/core"
	"vasched/internal/pm"
	"vasched/internal/sched"
	"vasched/internal/stats"
	"vasched/internal/workload"
)

// timelineGrid is a timeline sweep's static grid of cells. Every cell
// runs Trials random workloads on each of RunDies dies, and each (cell,
// die, trial) is one index of the grid's registered kernel: index =
// (cell*RunDies + die)*Trials + trial.
type timelineGrid struct {
	kernel string
	cells  []sweepCell
	// tune, when non-nil, adjusts a trial's engine configuration and
	// returns its simulated duration (default: Env.SimMS).
	tune func(e *Env, cfg *core.Config) float64
}

// sweepCell is one configuration of a timeline sweep.
type sweepCell struct {
	policy  string
	threads int
	mode    core.Mode
	// DVFS cells only: the power manager, its objective, and the power
	// environment whose budget it enforces.
	manager string
	obj     pm.Objective
	env     PowerEnv
}

// trialBlob is a timeline kernel's wire shape: the deterministic
// RunStats fields the sweep reductions read (never the wall-clock
// DecideTime, which would break byte-identity across workers).
type trialBlob struct {
	PowerW     float64 `json:"pw"`
	MIPS       float64 `json:"mips"`
	FreqHz     float64 `json:"f"`
	EDSquared  float64 `json:"ed2"`
	WeightedTP float64 `json:"wtp"`
	DevPct     float64 `json:"dev"`
	MaxTempC   float64 `json:"maxt"`
	WearoutMax float64 `json:"wear"`
}

// The registered timeline grids.
var (
	fig7Grid  = timelineGrid{kernel: "timeline-fig7", cells: policyCells(core.ModeUniFreq, varPPolicies, schedThreads)}
	fig8Grid  = timelineGrid{kernel: "timeline-fig8", cells: policyCells(core.ModeNUniFreq, varPPolicies, schedThreads)}
	fig9Grid  = timelineGrid{kernel: "timeline-fig9", cells: policyCells(core.ModeNUniFreq, varFPolicies, schedThreads)}
	fig11Grid = timelineGrid{kernel: "timeline-fig11", cells: comboCells([]PowerEnv{CostPerformance}, dvfsThreads, pm.ObjMIPS)}
	fig12Grid = timelineGrid{kernel: "timeline-fig12", cells: comboCells(fig12Envs, []int{20}, pm.ObjMIPS)}
	fig13Grid = timelineGrid{kernel: "timeline-fig13", cells: comboCells([]PowerEnv{CostPerformance}, dvfsThreads, pm.ObjWeighted)}
	sec74Grid = timelineGrid{kernel: "timeline-sec74", cells: []sweepCell{
		{policy: sched.NameRandom, threads: 20, mode: core.ModeUniFreq},
		{policy: sched.NameRandom, threads: 20, mode: core.ModeNUniFreq},
	}}
	extSchedGrid = timelineGrid{kernel: "timeline-ext-sched", cells: policyCells(core.ModeNUniFreq, extSchedPolicies, []int{12}), tune: extSchedTune}
)

func init() {
	for _, g := range []*timelineGrid{&fig7Grid, &fig8Grid, &fig9Grid, &fig11Grid, &fig12Grid, &fig13Grid, &sec74Grid, &extSchedGrid} {
		RegisterKernel(g.kernel, g.trial)
	}
}

// policyCells crosses scheduling policies (major) with thread counts.
func policyCells(mode core.Mode, policies []string, threads []int) []sweepCell {
	var cells []sweepCell
	for _, p := range policies {
		for _, n := range threads {
			cells = append(cells, sweepCell{policy: p, threads: n, mode: mode})
		}
	}
	return cells
}

// trial runs one (cell, die, trial) timeline. The workload seed depends
// only on die and trial, so every cell of a sweep sees the same
// workloads on the same dies.
func (g *timelineGrid) trial(ctx context.Context, e *Env, index int) ([]byte, error) {
	per := e.RunDies * e.Trials
	if index < 0 || index/per >= len(g.cells) {
		return nil, fmt.Errorf("experiments: %s index %d out of range", g.kernel, index)
	}
	cell, die, trial := g.cells[index/per], index%per/e.Trials, index%e.Trials
	c, err := e.Chip(die)
	if err != nil {
		return nil, err
	}
	policy, err := sched.New(cell.policy)
	if err != nil {
		return nil, err
	}
	seed := e.Seed + int64(trial)*97 + int64(die)*13
	cfg := core.Config{
		Chip: c, CPU: e.CPU(), Scheduler: policy, Mode: cell.mode,
		SampleIntervalMS: e.SampleMS, Seed: seed, Ctx: ctx,
	}
	if cell.manager != "" {
		mgr, err := e.Manager(cell.manager, cell.obj)
		if err != nil {
			return nil, err
		}
		cfg.Manager, cfg.DecideHist = mgr, e.DecideHist
		cfg.Budget = cell.env.Budget(cell.threads, e.Floorplan().NumCores)
	}
	simMS := e.SimMS
	if g.tune != nil {
		simMS = g.tune(e, &cfg)
	}
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	st, err := sys.Run(workload.Mix(stats.NewRNG(seed), cell.threads), simMS)
	if err != nil {
		return nil, err
	}
	return json.Marshal(trialBlob{
		PowerW: st.AvgPowerW, MIPS: st.MIPS, FreqHz: st.AvgActiveFreqHz,
		EDSquared: st.EDSquared, WeightedTP: st.WeightedTP, DevPct: st.PowerDeviationPct,
		MaxTempC: st.MaxTempC, WearoutMax: st.WearoutMax,
	})
}

// run evaluates the whole grid through the kernel path and returns each
// cell's trials in die-major, trial-minor order.
func (g *timelineGrid) run(e *Env) ([][]trialBlob, error) {
	per := e.RunDies * e.Trials
	out := make([][]trialBlob, len(g.cells))
	err := e.ForDiesKernel(g.kernel, len(g.cells)*per, func(index int, blob []byte) error {
		var b trialBlob
		if err := json.Unmarshal(blob, &b); err != nil {
			return fmt.Errorf("experiments: %s index %d blob: %w", g.kernel, index, err)
		}
		out[index/per] = append(out[index/per], b)
		return nil
	})
	return out, err
}

// mean averages one field over a cell's trials, in trial order.
func mean(trials []trialBlob, field func(trialBlob) float64) float64 {
	xs := make([]float64, len(trials))
	for i, t := range trials {
		xs[i] = field(t)
	}
	return stats.Mean(xs)
}

// SchedCell is the mean outcome of one (policy, thread-count) cell of a
// scheduling sweep, averaged over dies and workload trials.
type SchedCell struct {
	Threads   int
	Policy    string
	PowerW    float64
	MIPS      float64
	FreqHz    float64
	EDSquared float64
}

// The Figures 7-10 sweep axes.
var (
	schedThreads = []int{2, 4, 8, 16, 20}
	varPPolicies = []string{sched.NameRandom, sched.NameVarP, sched.NameVarPAppP}
	varFPolicies = []string{sched.NameRandom, sched.NameVarF, sched.NameVarFAppIPC}
)

// SchedSweepResult holds a rendered scheduling sweep: per policy, one cell
// per thread count, plus the baseline policy everything normalises to.
type SchedSweepResult struct {
	Title    string
	Baseline string
	Policies []string
	Threads  []int
	Cells    map[string][]SchedCell
}

// Rel returns metric(policy)/metric(baseline) for the thread-count index
// ti, where metric selects from the cell.
func (r *SchedSweepResult) Rel(policy string, ti int, metric func(SchedCell) float64) float64 {
	base := metric(r.Cells[r.Baseline][ti])
	if base == 0 {
		return 0
	}
	return metric(r.Cells[policy][ti]) / base
}

// renderRelative renders one relative-metric panel.
func (r *SchedSweepResult) renderRelative(b *strings.Builder, label string, metric func(SchedCell) float64) {
	fmt.Fprintf(b, "%s (relative to %s)\n", label, r.Baseline)
	fmt.Fprintf(b, "%-12s", "threads")
	for _, p := range r.Policies {
		fmt.Fprintf(b, " %12s", p)
	}
	b.WriteString("\n")
	for ti, n := range r.Threads {
		fmt.Fprintf(b, "%-12d", n)
		for _, p := range r.Policies {
			fmt.Fprintf(b, " %12.3f", r.Rel(p, ti, metric))
		}
		b.WriteString("\n")
	}
}

// Fig7 reproduces Figure 7: total power and ED^2 of Random, VarP, and
// VarP&AppP in the UniFreq configuration.
func Fig7(e *Env) (*SchedSweepResult, error) {
	return schedFigure(e, &fig7Grid, "Figure 7: UniFreq power & ED^2", varPPolicies)
}

// Fig8 reproduces Figure 8: the same algorithms in NUniFreq.
func Fig8(e *Env) (*SchedSweepResult, error) {
	return schedFigure(e, &fig8Grid, "Figure 8: NUniFreq power & ED^2", varPPolicies)
}

// Fig9 reproduces Figure 9: average frequency and throughput of Random,
// VarF, and VarF&AppIPC in NUniFreq. Figure 10 (ED^2 of the same runs) is
// rendered from the same result.
func Fig9(e *Env) (*SchedSweepResult, error) {
	return schedFigure(e, &fig9Grid, "Figure 9: NUniFreq frequency & MIPS", varFPolicies)
}

// Fig10 reproduces Figure 10; it shares its runs with Figure 9.
func Fig10(e *Env) (*SchedSweepResult, error) {
	r, err := Fig9(e)
	if err != nil {
		return nil, err
	}
	r.Title = "Figure 10: NUniFreq ED^2"
	return r, nil
}

// schedFigure runs a no-DVFS sweep (Figures 7-10) and averages each
// (policy, thread-count) cell over its dies and trials.
func schedFigure(e *Env, g *timelineGrid, title string, policies []string) (*SchedSweepResult, error) {
	trials, err := g.run(e)
	if err != nil {
		return nil, err
	}
	res := &SchedSweepResult{
		Title:    title,
		Baseline: policies[0],
		Policies: policies,
		Threads:  schedThreads,
		Cells:    make(map[string][]SchedCell, len(policies)),
	}
	for i, cell := range g.cells {
		ts := trials[i]
		res.Cells[cell.policy] = append(res.Cells[cell.policy], SchedCell{
			Threads: cell.threads, Policy: cell.policy,
			PowerW:    mean(ts, func(t trialBlob) float64 { return t.PowerW }),
			MIPS:      mean(ts, func(t trialBlob) float64 { return t.MIPS }),
			FreqHz:    mean(ts, func(t trialBlob) float64 { return t.FreqHz }),
			EDSquared: mean(ts, func(t trialBlob) float64 { return t.EDSquared }),
		})
	}
	return res, nil
}

// Render prints every panel relevant to the figure.
func (r *SchedSweepResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Title + "\n")
	r.renderRelative(&b, "(a) total power", func(c SchedCell) float64 { return c.PowerW })
	r.renderRelative(&b, "(b) ED^2", func(c SchedCell) float64 { return c.EDSquared })
	r.renderRelative(&b, "(c) mean frequency", func(c SchedCell) float64 { return c.FreqHz })
	r.renderRelative(&b, "(d) MIPS", func(c SchedCell) float64 { return c.MIPS })
	return b.String()
}
