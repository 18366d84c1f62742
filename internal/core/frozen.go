package core

import (
	"vasched/internal/chip"
	"vasched/internal/cpusim"
	"vasched/internal/pm"
	"vasched/internal/sched"
	"vasched/internal/sensors"
	"vasched/internal/stats"
	"vasched/internal/workload"
)

// FrozenSnapshot exposes a platform snapshot for diagnostics and tests:
// threads are placed with VarF&AppIPC and the platform reflects cold-start
// conditions (no prior evaluation).
func FrozenSnapshot(c *chip.Chip, cpu *cpusim.Model, apps []*workload.AppProfile, seed int64) (pm.Platform, error) {
	rng := stats.NewRNG(seed)
	infos := sensors.CoreInfos(c)
	threads, err := sensors.ProfileThreads(c, cpu, apps, nil, sensors.Noise{}, rng)
	if err != nil {
		return nil, err
	}
	assignment, err := (sched.VarFAppIPCPolicy{}).Assign(infos, threads, rng)
	if err != nil {
		return nil, err
	}
	snap := &platformSnapshot{}
	if err := snap.fill(c, cpu, apps, assignment, make([]float64, len(apps)), nil, nil, sensors.Noise{}); err != nil {
		return nil, err
	}
	return snap, nil
}
