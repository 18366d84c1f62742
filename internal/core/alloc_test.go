package core

import (
	"testing"

	"vasched/internal/sched"
	"vasched/internal/stats"
	"vasched/internal/workload"
)

// TestRunAllocatesNothingPerSample pins the engine's zero-allocation
// sample loop: a 150 ms run may allocate no more than a 50 ms run of the
// same configuration. The OS interval outlasts both runs, so each re-maps
// exactly once and the difference is what the 100 extra samples cost.
func TestRunAllocatesNothingPerSample(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c, cpu := testSystemParts(t)
	apps := workload.Mix(stats.NewRNG(3), 8)
	for _, transient := range []bool{false, true} {
		allocs := func(durMS float64) float64 {
			return testing.AllocsPerRun(5, func() {
				sys, err := New(Config{
					Chip: c, CPU: cpu, Scheduler: mustPolicy(t, sched.NameVarFAppIPC),
					Mode: ModeNUniFreq, TransientThermal: transient,
					OSIntervalMS: 1000, Seed: 5,
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sys.Run(apps, durMS); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(50), allocs(150)
		if perSample := (long - short) / 100; perSample != 0 {
			t.Errorf("transient=%v: %v allocations per sample (%v for 50 ms, %v for 150 ms)",
				transient, perSample, short, long)
		}
	}
}
