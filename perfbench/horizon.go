package main

import (
	"fmt"
	"strings"
	"time"

	"vasched/internal/dynamic"
	"vasched/internal/sched"
	"vasched/internal/workload"
)

// transient-horizon: one item is one dynamic.RunHorizon over ages 0, 3
// and 7 years with TempAware re-mapping every 10 ms, dt = 1 ms, and the
// 60/57 C throttle thresholds of the ext-transient and ext-wearout
// experiments, so that DVFS emergencies happen. Each
// tick is one backward-Euler thermal step (no fixed point), and the aged
// dies are rebuilt with chip.Build inside the horizon. Each block of
// items holds every (migration penalty, thread count) pair once; dies
// are characterised during set-up. Items run one at a time: with one
// worker per CPU of the 2-CPU host, throughput and median latency spread
// about twice as much between runs.
const (
	horizonDies     = 16
	horizonSimMS    = 200
	horizonDtMS     = 1
	horizonOSMS     = 10
	horizonYearsMid = 3
	horizonYearsEnd = 7
	horizonTripC    = 60
	horizonRecoverC = 57
)

var (
	horizonPenaltiesMS = []float64{0, 5}
	horizonThreads     = []int{8, 12, 16, 20}
)

type transientHorizon struct {
	seed int64
	dies characterisedDies
}

func newTransientHorizon(o options, _ sizes) benchWorkload { return &transientHorizon{seed: o.Seed} }

func (w *transientHorizon) setUp(tr *tracer) (time.Duration, error) {
	return w.dies.setUp(tr, horizonDies, w.seed)
}

func (w *transientHorizon) close() {}

func (w *transientHorizon) phase(p *phase) error {
	kinds := len(horizonPenaltiesMS) * len(horizonThreads)
	m := w.dies.m
	err := runItems(p, 1, func(i int) item {
		t := itemType(p.seed, i, kinds)
		penalty, n := horizonPenaltiesMS[t%len(horizonPenaltiesMS)], horizonThreads[t/len(horizonPenaltiesMS)]
		rng := itemRNG(p.seed, i)
		die := rng.Intn(len(w.dies.chips))
		c := w.dies.chips[die]
		apps := workload.Mix(rng.Derive(1), n)
		run := p.tr.start("dynamic.horizon", i, -1)
		res, err := dynamic.RunHorizon(dynamic.HorizonConfig{
			Run: dynamic.Config{
				Chip: c, CPU: m.cpu,
				Scheduler:          withTrace(sched.TempAwarePolicy{}, p.tr, i, run),
				DtMS:               horizonDtMS,
				OSIntervalMS:       horizonOSMS,
				EmergencyC:         horizonTripC,
				RecoverC:           horizonRecoverC,
				MigrationPenaltyMS: penalty,
				Seed:               rng.Int63(),
			},
			DelayCfg:   m.dcfg,
			PowerCfg:   m.pcfg,
			ThermalCfg: m.tcfg,
			Years:      []float64{horizonYearsMid, horizonYearsEnd},
		}, apps, horizonSimMS)
		p.tr.end(run)
		if err != nil {
			return item{err: err}
		}
		it := item{counts: counts{DynEpochs: int64(len(res.Epochs))}}
		lines := []string{fmt.Sprintf("pen%g n%d d%d", penalty, n, die)}
		for _, ep := range res.Epochs {
			r := ep.Result
			it.counts.DynTicks += int64(r.Steps)
			it.counts.Migrations += int64(r.Migrations)
			it.counts.Emergencies += int64(r.Emergencies)
			if err := checkOutputs(r.AvgPowerW, r.MIPS, r.MaxTempC, r.MaxTempC, c.Therm.Config().AmbientC); err != nil && it.err == nil {
				it.err = fmt.Errorf("%g-year epoch: %w", ep.Years, err)
			}
			lines = append(lines, fmt.Sprintf("y%g %.4f %.3f %.2f %.0f %.4f %.1f %.1f m%d e%d",
				ep.Years, ep.DVthMaxV, ep.MinFmaxHz/1e9, r.AvgPowerW, r.MIPS, r.WeightedTP, r.MaxTempC, r.ThrottledMS,
				r.Migrations, r.Emergencies))
		}
		it.digest = strings.Join(lines, " | ")
		return it
	})
	p.finish(w.dies.counts)
	return err
}
