package experiments

import (
	"fmt"
	"strings"

	"vasched/internal/core"
	"vasched/internal/pm"
	"vasched/internal/sched"
)

// Fig14Point is one (interval, thread-count) deviation measurement.
type Fig14Point struct {
	IntervalMS   float64
	Threads      int
	DeviationPct float64
}

// Fig14Result reproduces Figure 14: the average deviation of consumed
// power from Ptarget as a function of the interval between LinOpt runs,
// for 4- and 20-thread workloads. Long intervals let program phases drift
// the power away from the last solution; at the paper's 10 ms the
// deviation is ~1%.
type Fig14Result struct {
	Points []Fig14Point
}

// fig14Intervals are the swept LinOpt re-solve intervals, in ms.
var fig14Intervals = []float64{2000, 1000, 500, 100, 10}

// fig14Grid crosses 4 and 20 threads (major) with the intervals (each
// cell's param) on die 0. Long timelines are expensive: two trials
// suffice for a mean deviation at intervals of 500 ms and more.
var fig14Grid = func() timelineGrid {
	g := timelineGrid{kernel: "timeline-fig14", dies: 1, stride: 31, tune: fig14Tune}
	for _, n := range []int{4, 20} {
		for _, interval := range fig14Intervals {
			cell := sweepCell{
				policy: sched.NameVarFAppIPC, threads: n, mode: core.ModeDVFS,
				manager: pm.NameLinOpt, env: CostPerformance, param: interval,
			}
			if interval >= 500 {
				cell.maxTrials = 2
			}
			g.cells = append(g.cells, cell)
		}
	}
	return g
}()

// fig14Tune warms up for one full interval (thermal transients and the
// first decision), then measures over two more, sampling at 1 ms like
// the paper. The timeline is long enough to cover several re-solves of
// the longest interval. The OS interval must not re-map threads more
// often than the DVFS interval re-solves, or the re-map (which resets
// levels) would mask the interval effect.
func fig14Tune(e *Env, cell sweepCell, cfg *core.Config) (float64, error) {
	interval := cell.param
	warm := max(interval, 50)
	dur := max(warm+2*interval, warm+e.SimMS)
	cfg.DVFSIntervalMS, cfg.WarmupMS, cfg.OSIntervalMS, cfg.SampleIntervalMS = interval, warm, dur+1, 1
	return dur, nil
}

// Fig14 sweeps the DVFS re-solve interval.
func Fig14(e *Env) (*Fig14Result, error) {
	trials, err := fig14Grid.run(e)
	if err != nil {
		return nil, err
	}
	res := &Fig14Result{}
	for i, cell := range fig14Grid.cells {
		res.Points = append(res.Points, Fig14Point{
			IntervalMS: cell.param, Threads: cell.threads,
			DeviationPct: mean(trials[i], func(t trialBlob) float64 { return t.DevPct }),
		})
	}
	return res, nil
}

// Deviation returns the measured deviation for an (interval, threads)
// pair, or -1 if absent.
func (r *Fig14Result) Deviation(intervalMS float64, threads int) float64 {
	for _, p := range r.Points {
		if p.IntervalMS == intervalMS && p.Threads == threads {
			return p.DeviationPct
		}
	}
	return -1
}

// Render formats the sweep.
func (r *Fig14Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 14: mean |power - Ptarget| vs interval between LinOpt runs\n")
	fmt.Fprintf(&b, "%-12s %12s %12s\n", "interval", "4 threads", "20 threads")
	for _, interval := range fig14Intervals {
		fmt.Fprintf(&b, "%-12s %11.2f%% %11.2f%%\n",
			fmtInterval(interval), r.Deviation(interval, 4), r.Deviation(interval, 20))
	}
	b.WriteString("(paper: falls below ~1% at the 10 ms interval)\n")
	return b.String()
}

func fmtInterval(ms float64) string {
	if ms >= 1000 {
		return fmt.Sprintf("%.0fs", ms/1000)
	}
	return fmt.Sprintf("%.0fms", ms)
}
