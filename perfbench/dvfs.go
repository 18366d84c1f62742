package main

import (
	"fmt"
	"math"
	"time"

	"vasched/internal/core"
	"vasched/internal/experiments"
	"vasched/internal/pm"
	"vasched/internal/sched"
	"vasched/internal/workload"
)

// dvfs-timeline: one item is one core.System.Run in NUniFreq+DVFS, the
// loop behind Figures 11-14. Each block of items holds every (combo,
// thread count) pair once; dies are characterised during set-up.
const (
	dvfsDies      = 16
	dvfsSimMS     = 100 // the default-scale timeline length
	dvfsSampleMS  = 1
	dvfsSAnnEvals = 20000 // the default-scale annealing budget
	// dvfsWorkers is the farm width: one worker per CPU of the 2-CPU
	// host the benchmark was defined on.
	dvfsWorkers = 2
)

// dvfsThreads has seven thread counts, so that p95 falls inside one
// kind's latency cluster instead of on the edge between two.
var dvfsThreads = []int{2, 5, 8, 11, 14, 17, 20}

// dvfsCombos are the paper's four evaluated (scheduler, manager) pairs.
var dvfsCombos = []struct{ sched, manager string }{
	{sched.NameRandom, pm.NameFoxton},
	{sched.NameVarFAppIPC, pm.NameFoxton},
	{sched.NameVarFAppIPC, pm.NameLinOpt},
	{sched.NameVarFAppIPC, pm.NameSAnn},
}

type dvfsTimeline struct {
	seed int64
	dies characterisedDies
}

func newDVFSTimeline(o options, _ sizes) benchWorkload { return &dvfsTimeline{seed: o.Seed} }

func (w *dvfsTimeline) setUp(tr *tracer) (time.Duration, error) {
	return w.dies.setUp(tr, dvfsDies, w.seed)
}

func (w *dvfsTimeline) close() {}

func dvfsManager(name string) pm.Manager {
	switch name {
	case pm.NameFoxton:
		return pm.NewFoxton()
	case pm.NameLinOpt:
		return pm.LinOpt{FitPoints: 3, Objective: pm.ObjMIPS}
	default:
		return pm.SAnn{MaxEvals: dvfsSAnnEvals, Objective: pm.ObjMIPS}
	}
}

func (w *dvfsTimeline) phase(p *phase) error {
	kinds := len(dvfsCombos) * len(dvfsThreads)
	err := runItems(p, dvfsWorkers, func(i int) item {
		t := itemType(p.seed, i, kinds)
		combo, n := dvfsCombos[t%len(dvfsCombos)], dvfsThreads[t/len(dvfsCombos)]
		rng := itemRNG(p.seed, i)
		die := rng.Intn(len(w.dies.chips))
		c := w.dies.chips[die]
		apps := workload.Mix(rng.Derive(1), n)
		policy, err := sched.New(combo.sched)
		if err != nil {
			return item{err: err}
		}
		run := p.tr.start("core.run", i, -1)
		sys, err := core.New(core.Config{
			Chip: c, CPU: w.dies.m.cpu,
			Scheduler:        withTrace(policy, p.tr, i, run),
			Mode:             core.ModeDVFS,
			Manager:          dvfsManager(combo.manager),
			Budget:           experiments.CostPerformance.Budget(n, c.NumCores()),
			SampleIntervalMS: dvfsSampleMS,
			Seed:             rng.Int63(),
			DecideHist:       p.decideHist,
		})
		if err != nil {
			p.tr.end(run)
			return item{err: err}
		}
		st, err := sys.Run(apps, dvfsSimMS)
		p.tr.end(run)
		if err != nil {
			return item{err: err}
		}
		it := item{
			digest: fmt.Sprintf("%s+%s n%d d%d %.2f %.1f %.4f %.1f %.2f", combo.sched, combo.manager, n, die,
				st.AvgPowerW, st.MIPS, st.WeightedTP, st.MaxTempC, st.PowerDeviationPct),
			err:     checkOutputs(st.AvgPowerW, st.MIPS, st.MaxTempC, st.MaxTempC, c.Therm.Config().AmbientC),
			manager: combo.manager,
			decide:  st.DecideTime,
			counts: counts{
				CoreSamples: int64(math.Ceil(dvfsSimMS / dvfsSampleMS)),
				PMDecides:   int64(st.DecideCount),
			},
		}
		return it
	})
	p.finish(w.dies.counts)
	return err
}
