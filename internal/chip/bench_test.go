package chip

import (
	"testing"

	"vasched/internal/delay"
	"vasched/internal/thermal"
	"vasched/internal/workload"
)

// BenchmarkChipEvaluate is one steady-state evaluation of a 20-thread
// DVFS state — the per-monitor-sample cost of the Fig. 11-14 timelines:
// dynamic power assembly, then the leakage-temperature fixed point over
// the sparse thermal solve and the leakage kernel.
func BenchmarkChipEvaluate(b *testing.B) {
	c, cpu := testChip(b)
	apps := workload.SPEC()
	st := c.OffStates()
	for core := range st {
		// Spread the cores over the ladder so leakage is evaluated at
		// several supplies, as under a DVFS manager.
		li := c.MinLevelIndex(core) + core%3
		if li >= len(c.Levels) {
			li = len(c.Levels) - 1
		}
		v := c.Levels[li]
		st[core] = CoreState{App: apps[core%len(apps)], V: v, F: c.FmaxAt(core, v)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Evaluate(st, cpu); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChipBuild is one cold characterisation of a 128x128 die — the
// per-die cost of a fresh die population and of every aged rebuild in a
// wearout horizon: thermal factor, per-block leakage cache, path sampling
// and the per-core (V, f) and static-power tables.
func BenchmarkChipBuild(b *testing.B) {
	c, _ := testChip(b)
	dcfg, tcfg := delay.DefaultConfig(), thermal.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(c.Maps, c.FP, dcfg, c.Power, tcfg); err != nil {
			b.Fatal(err)
		}
	}
}
