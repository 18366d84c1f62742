package main

import (
	"fmt"
	"strings"
	"time"

	"vasched/internal/chip"
	"vasched/internal/diecache"
	"vasched/internal/fft"
	"vasched/internal/sched"
	"vasched/internal/sensors"
	"vasched/internal/varmodel"
	"vasched/internal/workload"
)

// die-population: one item is one new die pair (2i, 2i+1) of the seed's
// batch, the cold path of a die batch. Each die goes through a fresh
// diecache.Cache (a miss: Generator.Die, then chip.Build); VarF&AppIPC
// maps a seeded 20-thread mix onto it and one all-cores chip.Evaluate
// runs at the nominal supply.
//
// The item is a pair, not a die: the generator draws two dies per
// transform, so odd dies cost almost nothing and per-die latency is
// bimodal. Items run one at a time on one Generator, so an item's two
// Die calls share their transform deterministically and the work
// counters repeat. (With one worker per CPU of the 2-CPU host,
// throughput and median latency spread two to three times as much
// between runs.)

type diePopulation struct {
	seed int64
	m    *model
	gen  *varmodel.Generator
}

func newDiePopulation(o options, _ sizes) benchWorkload { return &diePopulation{seed: o.Seed} }

func (w *diePopulation) setUp(_ *tracer) (time.Duration, error) {
	start := time.Now()
	m, err := newModel()
	if err != nil {
		return 0, err
	}
	g, err := varmodel.NewGenerator(m.vcfg)
	if err != nil {
		return 0, err
	}
	took := time.Since(start)
	w.m, w.gen = m, g
	return took, nil
}

func (w *diePopulation) close() {}

func (w *diePopulation) phase(p *phase) error {
	err := runItems(p, 1, func(i int) item {
		// Only this item transforms while it runs, so the process-wide
		// counters' deltas are its own.
		fft0, s0 := fft.PointsTransformed(), w.gen.SampleCount()
		var it item
		var digest []string
		for d := 2 * i; d <= 2*i+1; d++ {
			line, c, err := w.die(p, w.gen, i, d)
			it.counts.add(c)
			if err != nil {
				it.err = fmt.Errorf("die %d: %w", d, err)
				break
			}
			digest = append(digest, line)
		}
		it.counts.VarSamples = w.gen.SampleCount() - s0
		it.counts.FFTPoints = fft.PointsTransformed() - fft0
		it.digest = strings.Join(digest, " | ")
		return it
	})
	p.finish(counts{})
	return err
}

// die characterises, maps and evaluates die d of item i.
func (w *diePopulation) die(p *phase, g *varmodel.Generator, i, d int) (string, counts, error) {
	cache := diecache.New(1, "")
	c, err := w.m.characterise(p.tr, i, -1, cache, g, p.seed, d)
	cn := counts{DieMisses: cache.Stats().Misses}
	if err != nil {
		return "", cn, err
	}
	rng := itemRNG(p.seed, i).Derive(int64(d))
	apps := workload.Mix(rng.Derive(1), c.NumCores())
	threads, err := sensors.ProfileThreads(c, w.m.cpu, apps, nil, sensors.NewNoise(0, rng.Derive(2)), rng.Derive(3))
	if err != nil {
		return "", cn, err
	}
	policy := withTrace(sched.VarFAppIPCPolicy{}, p.tr, i, -1)
	asg, err := policy.Assign(sensors.CoreInfos(c), threads, rng.Derive(4))
	if err != nil {
		return "", cn, err
	}
	states := c.OffStates()
	for t, core := range asg {
		states[core] = chip.CoreState{App: apps[t], V: c.Tech.VddNominal, F: c.FmaxNominal(core)}
	}
	ev := p.tr.start("chip.evaluate", i, -1)
	res, err := c.Evaluate(states, w.m.cpu)
	p.tr.end(ev)
	if err != nil {
		return "", cn, err
	}
	cn.ChipEvaluates = 1
	cn.ThermalIters = int64(res.ThermalIters)
	cn.ThermalItersHi = int64(res.ThermalIters)
	mips, coolest, hottest := 0.0, res.CoreTempC[0], res.CoreTempC[0]
	for core, st := range states {
		mips += res.CoreIPC[core] * st.F / 1e6
		coolest, hottest = min(coolest, res.CoreTempC[core]), max(hottest, res.CoreTempC[core])
	}
	if res.ThermalIters >= maxThermalIters {
		cn.NonConverged = 1
		return "", cn, fmt.Errorf("thermal fixed point used all %d iterations", res.ThermalIters)
	}
	if err := checkOutputs(res.TotalW, mips, coolest, hottest, c.Therm.Config().AmbientC); err != nil {
		return "", cn, err
	}
	line := fmt.Sprintf("%.2f %.2f %.2f %.0f %.1f %.3f %d",
		res.TotalW, res.DynW, res.StaticW, mips, hottest, c.FmaxNominal(asg[0])/1e9, res.ThermalIters)
	return line, cn, nil
}
