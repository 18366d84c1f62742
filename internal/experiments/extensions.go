package experiments

import (
	"fmt"
	"strings"

	"vasched/internal/core"
	"vasched/internal/parallel"
	"vasched/internal/pm"
	"vasched/internal/sched"
	"vasched/internal/workload"
)

// ExtSchedRow compares one scheduling policy on the extension metrics.
type ExtSchedRow struct {
	Policy     string
	MIPS       float64
	AvgPowerW  float64
	MaxTempC   float64
	WearoutMax float64
	EDSquared  float64
}

// ExtSchedResult is the temperature/wearout extension study (the paper's
// Section 8 future work, items 1 and 2): does temperature-aware mapping
// reduce hot spots and slow down aging, and at what throughput cost?
type ExtSchedResult struct {
	Rows []ExtSchedRow
}

// extSchedPolicies are the policies the ext-sched study compares.
var extSchedPolicies = []string{sched.NameRandom, sched.NameVarPAppP, sched.NameTempAware}

// extSchedTune configures an ext-sched trial. A short OS interval makes
// migration (the TempAware mechanism) happen within the run, and
// transient thermal makes migrated-to cores heat up with realistic
// inertia; that needs several thermal time constants, so trials run at
// least 300 ms past a 100 ms cold-start excluded from the statistics.
func extSchedTune(e *Env, cfg *core.Config) float64 {
	cfg.OSIntervalMS, cfg.TransientThermal, cfg.WarmupMS = 20, true, 100
	return 100 + max(e.SimMS, 300)
}

// ExtSched runs Random, VarP&AppP, and TempAware at 12 threads in
// NUniFreq and reports thermal, wearout, and throughput outcomes.
func ExtSched(e *Env) (*ExtSchedResult, error) {
	trials, err := extSchedGrid.run(e)
	if err != nil {
		return nil, err
	}
	res := &ExtSchedResult{}
	for i, cell := range extSchedGrid.cells {
		ts := trials[i]
		res.Rows = append(res.Rows, ExtSchedRow{
			Policy:     cell.policy,
			MIPS:       mean(ts, func(t trialBlob) float64 { return t.MIPS }),
			AvgPowerW:  mean(ts, func(t trialBlob) float64 { return t.PowerW }),
			MaxTempC:   mean(ts, func(t trialBlob) float64 { return t.MaxTempC }),
			WearoutMax: mean(ts, func(t trialBlob) float64 { return t.WearoutMax }),
			EDSquared:  mean(ts, func(t trialBlob) float64 { return t.EDSquared }),
		})
	}
	return res, nil
}

// Render formats the study.
func (r *ExtSchedResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension (paper Section 8, items 1-2): thermal- and wearout-aware scheduling, 12 threads, NUniFreq\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %12s\n", "policy", "MIPS", "power(W)", "maxT(C)", "wearout max")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %10.0f %10.1f %10.1f %12.2f\n",
			row.Policy, row.MIPS, row.AvgPowerW, row.MaxTempC, row.WearoutMax)
	}
	b.WriteString("(wearout = aging rate of the fastest-aging core relative to nominal operation)\n")
	return b.String()
}

// ExtParallelRow compares one (core choice, objective) configuration.
type ExtParallelRow struct {
	Label           string
	TimeMS          float64
	AvgPowerW       float64
	EnergyJ         float64
	BarrierWastePct float64
}

// ExtParallelResult is the parallel-applications extension study (Section
// 8, item 3): barrier-synchronised jobs on a variation-affected CMP under
// a power budget, comparing core-selection and power-management policies.
type ExtParallelResult struct {
	Job  parallel.Job
	Rows []ExtParallelRow
}

// ExtParallel runs an 8-thread swim-like barrier job on die 0 under a
// tight budget.
func ExtParallel(e *Env) (*ExtParallelResult, error) {
	c, err := e.Chip(0)
	if err != nil {
		return nil, err
	}
	app, err := workload.ByName("swim")
	if err != nil {
		return nil, err
	}
	job := parallel.Job{App: app, Threads: 8, SectionInstr: 1e7, Sections: 20}
	budget := pm.Budget{PTargetW: 24, PCoreMaxW: 7}

	fastest, err := parallel.PickFastestCores(c, job.Threads)
	if err != nil {
		return nil, err
	}
	similar, err := parallel.PickSimilarCores(c, job.Threads)
	if err != nil {
		return nil, err
	}
	res := &ExtParallelResult{Job: job}
	cases := []struct {
		label string
		cores []int
		mgr   pm.Manager
	}{
		{"fastest + Foxton*", fastest, pm.NewFoxton()},
		{"fastest + LinOpt(MIPS)", fastest, pm.NewLinOpt()},
		{"fastest + LinOpt(min-speed)", fastest, pm.LinOpt{FitPoints: 3, Objective: pm.ObjMinSpeed}},
		{"similar + LinOpt(min-speed)", similar, pm.LinOpt{FitPoints: 3, Objective: pm.ObjMinSpeed}},
	}
	for _, cs := range cases {
		r, err := parallel.Budgeted(e.Context(), c, e.CPU(), job, cs.cores, cs.mgr, budget, e.Seed)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ExtParallelRow{
			Label: cs.label, TimeMS: r.TimeMS, AvgPowerW: r.AvgPowerW,
			EnergyJ: r.EnergyJ, BarrierWastePct: r.BarrierWastePct,
		})
	}
	return res, nil
}

// Render formats the study.
func (r *ExtParallelResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension (paper Section 8, item 3): %d-thread barrier job (%s), Ptarget 24 W\n",
		r.Job.Threads, r.Job.App.Name)
	fmt.Fprintf(&b, "%-30s %10s %10s %10s %12s\n", "configuration", "time(ms)", "power(W)", "energy(J)", "barrier waste")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-30s %10.1f %10.1f %10.2f %11.1f%%\n",
			row.Label, row.TimeMS, row.AvgPowerW, row.EnergyJ, row.BarrierWastePct)
	}
	b.WriteString("(barrier waste = aggregate thread-time idle at barriers)\n")
	return b.String()
}
