package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"vasched/internal/chip"
	"vasched/internal/cpusim"
	"vasched/internal/delay"
	"vasched/internal/diecache"
	"vasched/internal/farm"
	"vasched/internal/fft"
	"vasched/internal/floorplan"
	"vasched/internal/power"
	"vasched/internal/sched"
	"vasched/internal/stats"
	"vasched/internal/thermal"
	"vasched/internal/varmodel"
	"vasched/internal/workload"
)

// maxTempC bounds every reported temperature; ambient is the lower bound.
const maxTempC = 150

// maxThermalIters is the iteration cap chip.Evaluate passes to the
// thermal fixed point. An evaluation that uses all of them did not
// converge, although the solver reports no error.
const maxThermalIters = 60

// modelGrid is the variation-map resolution of every in-process
// workload: the quick scale's 128x128, the grid the goldens, the tests
// and vaschedd's quick jobs use. (At the paper's 256x256 the FFT's
// working set leaves the caches and host-time spread between runs
// triples.)
const modelGrid = 128

// model is the die model every in-process workload shares: the paper's
// Table 4 variation model on the 20-core floorplan, with the default
// delay, power and thermal calibration and the calibrated core model.
type model struct {
	vcfg varmodel.Config
	dcfg delay.Config
	pcfg power.Model
	tcfg thermal.Config
	fp   *floorplan.Floorplan
	cpu  *cpusim.Model
	hash uint64
}

func newModel() (*model, error) {
	m := &model{vcfg: varmodel.DefaultConfig(), dcfg: delay.DefaultConfig(), tcfg: thermal.DefaultConfig()}
	m.vcfg.GridRows, m.vcfg.GridCols = modelGrid, modelGrid
	m.pcfg = power.DefaultModel(m.vcfg.Tech)
	m.fp = floorplan.New20CoreCMP()
	cpu, err := cpusim.New(cpusim.DefaultCoreConfig(), workload.SPEC())
	if err != nil {
		return nil, err
	}
	m.cpu = cpu
	if m.hash, err = diecache.ConfigHash(m.vcfg, m.dcfg, m.pcfg, m.tcfg); err != nil {
		return nil, err
	}
	return m, nil
}

// characterise returns die d of batch through cache, the way
// experiments.Env.Chip does. Traced, the generate and build closures are
// timed as children of one diecache.get span.
func (m *model) characterise(tr *tracer, itemID, parent int, cache *diecache.Cache, g *varmodel.Generator, batch int64, d int) (*chip.Chip, error) {
	gen := func() (*varmodel.DieMaps, error) { return g.Die(batch, d) }
	build := func(maps *varmodel.DieMaps) (any, error) {
		return chip.Build(maps, m.fp, m.dcfg, m.pcfg, m.tcfg)
	}
	get := tr.start("diecache.get", itemID, parent)
	if tr != nil {
		plainGen, plainBuild := gen, build
		gen = func() (*varmodel.DieMaps, error) {
			id := tr.start("varmodel.die", itemID, get)
			defer tr.end(id)
			return plainGen()
		}
		build = func(maps *varmodel.DieMaps) (any, error) {
			id := tr.start("chip.build", itemID, get)
			defer tr.end(id)
			return plainBuild(maps)
		}
	}
	v, err := cache.Get(context.Background(), diecache.Key{ConfigHash: m.hash, BatchSeed: batch, Die: d}, gen, build)
	tr.end(get)
	if err != nil {
		return nil, fmt.Errorf("die %d: %w", d, err)
	}
	return v.(*chip.Chip), nil
}

// characterisedDies is the set-up of the timeline workloads: the model
// plus n dies of the seed's batch, generated and built in index order
// through one cache, so the set-up's work counters are exact.
type characterisedDies struct {
	m     *model
	chips []*chip.Chip
	// counts is the last set-up's work.
	counts counts
}

func (cd *characterisedDies) setUp(tr *tracer, n int, batch int64) (time.Duration, error) {
	start := time.Now()
	fft0 := fft.PointsTransformed()
	m, err := newModel()
	if err != nil {
		return 0, err
	}
	g, err := varmodel.NewGenerator(m.vcfg)
	if err != nil {
		return 0, err
	}
	cache := diecache.New(0, "")
	chips := make([]*chip.Chip, n)
	for d := range chips {
		if chips[d], err = m.characterise(tr, -1, -1, cache, g, batch, d); err != nil {
			return 0, err
		}
	}
	took := time.Since(start)
	cd.m, cd.chips = m, chips
	cd.counts = counts{
		FFTPoints:  fft.PointsTransformed() - fft0,
		VarSamples: g.SampleCount(),
		DieMisses:  cache.Stats().Misses,
	}
	return took, nil
}

// maxPhaseItems bounds the item index space of one phase.
const maxPhaseItems = 1 << 15

// runItems runs fn over the item stream on the farm engine with the
// given number of workers until the phase is over, and records the
// phase's host time, heap allocation and peak RSS. Items are taken in
// index order, so the completed items are always a prefix of the stream.
func runItems(p *phase, workers int, fn func(i int) item) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := farm.Map(context.Background(), workers, maxPhaseItems, func(_ context.Context, i int) error {
		if !p.more(i, start) {
			return errStop
		}
		t0 := time.Now()
		it := fn(i)
		it.index, it.latency = i, time.Since(t0)
		p.record(it)
		return nil
	})
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil && !errors.Is(err, errStop) {
		return err
	}
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	p.peakRSS = rss
	return nil
}

// itemRNG is item i's private random stream: every input of an item is
// drawn from it, so an item depends on (seed, i) alone.
func itemRNG(seed int64, i int) *stats.RNG {
	return stats.NewRNG(seed).Derive(1_000_000 + int64(i))
}

// itemType spreads item kinds evenly: each block of k consecutive items
// holds every kind once, in an order drawn from the seed.
func itemType(seed int64, i, k int) int {
	return stats.NewRNG(seed).Derive(int64(i / k)).Perm(k)[i%k]
}

// tracedPolicy times every Assign call as a sched.assign span.
type tracedPolicy struct {
	sched.Policy
	tr             *tracer
	itemID, parent int
}

func (p tracedPolicy) Assign(cores []sched.CoreInfo, threads []sched.ThreadInfo, rng *stats.RNG) (sched.Assignment, error) {
	id := p.tr.start("sched.assign", p.itemID, p.parent)
	defer p.tr.end(id)
	return p.Policy.Assign(cores, threads, rng)
}

// withTrace wraps policy in a tracedPolicy when the phase is traced.
func withTrace(policy sched.Policy, tr *tracer, itemID, parent int) sched.Policy {
	if tr == nil {
		return policy
	}
	return tracedPolicy{Policy: policy, tr: tr, itemID: itemID, parent: parent}
}

// checkOutputs is the per-result invariant: finite, positive power and
// throughput, and temperatures (lowest lowC, highest highC) between
// ambient and maxTempC.
func checkOutputs(powerW, mips, lowC, highC, ambientC float64) error {
	switch {
	case !(powerW > 0) || math.IsInf(powerW, 0):
		return fmt.Errorf("power %v W is not finite and positive", powerW)
	case !(mips > 0) || math.IsInf(mips, 0):
		return fmt.Errorf("throughput %v MIPS is not finite and positive", mips)
	case !(lowC >= ambientC && highC <= maxTempC):
		return fmt.Errorf("temperatures [%v, %v] C outside [%v, %v]", lowC, highC, ambientC, maxTempC)
	}
	return nil
}
