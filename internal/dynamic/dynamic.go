// Package dynamic is the scenario front end of the tick engine in package
// core (System.RunScenario): the thermal RC network advances tick by tick
// (backward Euler), per-core power follows each thread's *current*
// workload phase, migrated threads stall, a pm.ThrottleGovernor clamps
// DVFS on thermal emergencies with hysteresis, and a wearout accumulator
// integrates every tick, so long-horizon runs (horizon.go) can degrade Vth
// across simulated years and re-schedule against the drifted die.
//
// Everything is deterministic: results are a pure function of (Config,
// apps, duration). The package backs the ext-transient, ext-phase-mig and
// ext-wearout experiments, whose goldens pin its behaviour byte-for-byte
// across worker counts, cluster shards, and cache states.
package dynamic

import (
	"context"
	"errors"
	"fmt"

	"vasched/internal/chip"
	"vasched/internal/core"
	"vasched/internal/cpusim"
	"vasched/internal/pm"
	"vasched/internal/sched"
	"vasched/internal/wearout"
	"vasched/internal/workload"
)

// Config assembles one dynamic scenario run.
type Config struct {
	// Chip is the characterised die and CPU the calibrated core model.
	Chip *chip.Chip
	CPU  *cpusim.Model
	// Scheduler re-maps threads every OS interval; temperature-aware
	// policies see the transient temperatures of the previous tick.
	Scheduler sched.Policy
	// DtMS is the integration step (default 1 ms). Smaller steps resolve
	// faster thermal transients at proportional cost; the backward-Euler
	// stepper is unconditionally stable, so large steps lose resolution,
	// not correctness.
	DtMS float64
	// OSIntervalMS is the re-scheduling cadence (default 10 ms).
	OSIntervalMS float64
	// EmergencyC trips the thermal throttle; RecoverC releases it
	// (defaults 85 / 80). See pm.ThrottleGovernor for the hysteresis
	// rationale.
	EmergencyC float64
	RecoverC   float64
	// MigrationPenaltyMS is the stall charged to a thread each time the
	// scheduler moves it to a different core (cold caches, state
	// transfer). The thread burns power but retires no instructions for
	// this long after a migration.
	MigrationPenaltyMS float64
	// SensorNoise is the relative sigma of profiling measurements.
	SensorNoise float64
	// StartOffsetsMS, when non-nil, gives each thread a head start into
	// its phase cycle (len must equal the thread count). The phase-shift
	// experiments use it to place threads near phase boundaries so a
	// short window still crosses them; progress and instruction counts
	// still start at zero.
	StartOffsetsMS []float64
	// Wearout calibrates the aging model; the zero value selects
	// wearout.DefaultParams.
	Wearout wearout.Params
	// Seed drives every stochastic choice.
	Seed int64
	// Ctx carries tracing state only; results must not depend on it.
	Ctx context.Context
}

func (c *Config) setDefaults() {
	if c.DtMS <= 0 {
		c.DtMS = 1
	}
	if c.OSIntervalMS <= 0 {
		c.OSIntervalMS = 10
	}
	if c.EmergencyC == 0 {
		c.EmergencyC = 85
	}
	if c.RecoverC == 0 {
		c.RecoverC = c.EmergencyC - 5
	}
	if c.Wearout == (wearout.Params{}) {
		c.Wearout = wearout.DefaultParams()
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Chip == nil || c.CPU == nil {
		return errors.New("dynamic: Chip and CPU are required")
	}
	if c.Scheduler == nil {
		return errors.New("dynamic: Scheduler is required")
	}
	if c.RecoverC > c.EmergencyC {
		return fmt.Errorf("dynamic: recover threshold %.1fC above emergency %.1fC", c.RecoverC, c.EmergencyC)
	}
	if c.MigrationPenaltyMS < 0 {
		return fmt.Errorf("dynamic: negative migration penalty %v", c.MigrationPenaltyMS)
	}
	return nil
}

// Result aggregates one dynamic run.
type Result struct {
	// DurationMS is the simulated time and Steps the tick count.
	DurationMS float64
	Steps      int
	// AvgPowerW and MIPS are time-averaged chip power and throughput;
	// WeightedTP normalises each thread by its reference speed.
	AvgPowerW  float64
	MIPS       float64
	WeightedTP float64
	// MaxTempC is the hottest block temperature seen over the run;
	// FinalMaxTempC the hottest at the last tick (transient state).
	MaxTempC      float64
	FinalMaxTempC float64
	// Emergencies counts throttle escalations and ThrottledMS the
	// simulated time spent with a non-zero clamp.
	Emergencies int
	ThrottledMS float64
	// Migrations counts threads moved between cores at OS re-schedules;
	// PhaseSwitches counts workload phase-boundary crossings observed.
	Migrations    int
	PhaseSwitches int
	// Instructions is per-thread executed instruction counts.
	Instructions []float64
	// WearoutIndex is the per-core aging rate relative to nominal,
	// WearoutMax its maximum, and EquivalentTime the per-core integrated
	// equivalent stress time (the quantity horizon runs extrapolate).
	WearoutIndex   []float64
	WearoutMax     float64
	EquivalentTime []float64
}

// Run executes the scenario for durationMS simulated milliseconds.
func Run(cfg Config, apps []*workload.AppProfile, durationMS float64) (*Result, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	governor, err := pm.NewThrottleGovernor(cfg.EmergencyC, cfg.RecoverC)
	if err != nil {
		return nil, err
	}
	sys, err := core.New(core.Config{
		Chip: cfg.Chip, CPU: cfg.CPU, Scheduler: cfg.Scheduler,
		Mode:             core.ModeNUniFreq,
		OSIntervalMS:     cfg.OSIntervalMS,
		SampleIntervalMS: cfg.DtMS,
		TransientThermal: true,
		SensorNoise:      cfg.SensorNoise,
		Seed:             cfg.Seed,
		Ctx:              cfg.Ctx,
	})
	if err != nil {
		return nil, err
	}
	st, err := sys.RunScenario(core.Scenario{
		Governor:           governor,
		MigrationPenaltyMS: cfg.MigrationPenaltyMS,
		StartOffsetsMS:     cfg.StartOffsetsMS,
		Wearout:            cfg.Wearout,
	}, apps, durationMS)
	if err != nil {
		return nil, err
	}
	return &Result{
		DurationMS:     durationMS,
		Steps:          st.Steps,
		AvgPowerW:      st.AvgPowerW,
		MIPS:           st.MIPS,
		WeightedTP:     st.WeightedTP,
		MaxTempC:       st.MaxTempC,
		FinalMaxTempC:  st.FinalMaxTempC,
		Emergencies:    governor.Emergencies(),
		ThrottledMS:    st.ThrottledMS,
		Migrations:     st.Migrations,
		PhaseSwitches:  st.PhaseSwitches,
		Instructions:   st.Instructions,
		WearoutIndex:   st.WearoutIndex,
		WearoutMax:     st.WearoutMax,
		EquivalentTime: st.WearoutTime,
	}, nil
}
