// Package core is the tick engine that ties the repository together. A
// System owns one characterised chip, a scheduling policy and (optionally)
// a power manager, and executes the paper's Figure 2 timeline: the OS
// re-maps threads every OS interval, an operating-point controller sets
// every thread's (V, f), and the chip advances one monitor sample at a
// time, either to the steady-state leakage-temperature fixed point or by
// one backward-Euler step of the thermal RC network. The controller is the
// Table 2 configuration (fixed clocks, or DVFS re-solved by the power
// manager every DVFS interval) or, in a Scenario run (package dynamic), a
// thermal-emergency throttle. Every sample reuses buffers the run owns.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"vasched/internal/chip"
	"vasched/internal/cpusim"
	"vasched/internal/metrics"
	"vasched/internal/pm"
	"vasched/internal/sched"
	"vasched/internal/sensors"
	"vasched/internal/stats"
	"vasched/internal/trace"
	"vasched/internal/wearout"
	"vasched/internal/workload"
)

// Mode selects the CMP configuration of the paper's Table 2.
type Mode int

// The three evaluated configurations.
const (
	// ModeUniFreq: all cores cycle at the slowest core's frequency, no
	// DVFS (Section 4.1).
	ModeUniFreq Mode = iota
	// ModeNUniFreq: each core at its own maximum frequency, no DVFS
	// (Section 4.2).
	ModeNUniFreq
	// ModeDVFS: non-uniform frequency with per-core DVFS under a power
	// budget (Section 4.3).
	ModeDVFS
)

// String names the configuration as in Table 2.
func (m Mode) String() string {
	switch m {
	case ModeUniFreq:
		return "UniFreq"
	case ModeNUniFreq:
		return "NUniFreq"
	case ModeDVFS:
		return "NUniFreq+DVFS"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config assembles a System.
type Config struct {
	// Chip is the characterised die and CPU the calibrated core model.
	Chip *chip.Chip
	CPU  *cpusim.Model
	// Scheduler places threads on cores.
	Scheduler sched.Policy
	// Mode selects the Table 2 configuration.
	Mode Mode
	// Manager chooses (V, f) points; required in ModeDVFS, ignored
	// otherwise.
	Manager pm.Manager
	// Budget is the power envelope for ModeDVFS.
	Budget pm.Budget
	// OSIntervalMS and DVFSIntervalMS set the Figure 2 cadence. Defaults:
	// 100 ms and 10 ms.
	OSIntervalMS   float64
	DVFSIntervalMS float64
	// SampleIntervalMS is the power-monitor sampling cadence used for the
	// Figure 14 deviation statistic. Default: 1 ms.
	SampleIntervalMS float64
	// WarmupMS excludes an initial transient from the reported statistics:
	// the timeline still executes (temperatures settle, the first DVFS
	// decisions take effect) but accumulators and the deviation tracker
	// only start recording afterwards.
	WarmupMS float64
	// CaptureTrace records one TracePoint per monitor sample in
	// RunStats.Trace (costs memory proportional to duration/sample).
	CaptureTrace bool
	// TransientThermal switches the per-sample thermal evaluation from
	// steady-state (the default, matching the recorded experiments) to
	// time-stepped RC integration with thermal inertia. Activity-
	// migration policies (TempAware) only show their benefit with inertia
	// modelled: a migrated-to core heats up over tens of milliseconds
	// instead of instantly.
	TransientThermal bool
	// VTransitionUSPerStep is the time in microseconds a core stalls per
	// voltage-ladder step it moves at a DVFS decision. The paper
	// conservatively assumes the transition speeds of Xscale-era systems
	// (tens of microseconds per step, supplied by off-chip regulators);
	// fast on-chip regulators (Kim et al., cited in the paper) make this
	// ~0. Default 0.
	VTransitionUSPerStep float64
	// SensorNoise is the relative sigma of sensor measurements.
	SensorNoise float64
	// Seed drives every stochastic choice (random scheduling, profiling
	// core selection, SAnn).
	Seed int64
	// DecideHist, when non-nil, receives one Observe(seconds) per
	// Manager.Decide call, so services running experiments (cmd/vaschedd)
	// can export decision-latency distributions without touching the
	// aggregate DecideTime/DecideCount statistics.
	DecideHist *metrics.LatencyHist
	// Ctx, when non-nil, is threaded into Manager.Decide so tracing
	// spans opened by the power manager nest under the caller's span.
	// It is observability-only: the simulation ignores cancellation.
	Ctx context.Context
}

func (c *Config) setDefaults() {
	if c.OSIntervalMS <= 0 {
		c.OSIntervalMS = 100
	}
	if c.DVFSIntervalMS <= 0 {
		c.DVFSIntervalMS = 10
	}
	if c.SampleIntervalMS <= 0 {
		c.SampleIntervalMS = 1
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Chip == nil || c.CPU == nil {
		return errors.New("core: Chip and CPU are required")
	}
	if c.Scheduler == nil {
		return errors.New("core: Scheduler is required")
	}
	if c.Mode == ModeDVFS {
		if c.Manager == nil {
			return errors.New("core: ModeDVFS requires a power manager")
		}
		if c.Budget.PTargetW <= 0 || c.Budget.PCoreMaxW <= 0 {
			return fmt.Errorf("core: ModeDVFS requires a positive budget, got %+v", c.Budget)
		}
	}
	return nil
}

// TracePoint is one monitor sample of a captured run.
type TracePoint struct {
	// TimeMS is the sample's simulated time.
	TimeMS float64
	// PowerW and MIPS are the instantaneous chip power and throughput.
	PowerW float64
	MIPS   float64
	// MaxTempC is the hottest block temperature at the sample.
	MaxTempC float64
}

// RunStats aggregates one run.
type RunStats struct {
	// DurationMS is the simulated time.
	DurationMS float64
	// AvgPowerW/AvgDynW/AvgStatW are time-averaged chip powers.
	AvgPowerW, AvgDynW, AvgStatW float64
	// MIPS is the time-averaged total throughput.
	MIPS float64
	// WeightedTP is the time-averaged weighted throughput (one unit per
	// thread running at its reference speed).
	WeightedTP float64
	// AvgActiveFreqHz is the time- and thread-averaged core frequency.
	AvgActiveFreqHz float64
	// MaxTempC is the hottest block temperature seen.
	MaxTempC float64
	// EDSquared is AvgPowerW / MIPS^3 (proportional to true ED^2 at fixed
	// work; see metrics.EDSquared).
	EDSquared float64
	// PowerDeviationPct is the Figure 14 statistic: mean |P - Ptarget| in
	// percent over the monitor samples (0 unless ModeDVFS).
	PowerDeviationPct float64
	// WearoutIndex is the per-die-core aging rate relative to nominal
	// operation (see package wearout); WearoutMax is its maximum — the
	// lifetime-limiting core.
	WearoutIndex []float64
	WearoutMax   float64
	// Instructions is per-thread executed instruction counts.
	Instructions []float64
	// DecideTime is total wall-clock time spent inside Manager.Decide,
	// and DecideCount the number of invocations (Figure 15).
	DecideTime  time.Duration
	DecideCount int
	// Trace holds per-sample points when Config.CaptureTrace is set.
	Trace []TracePoint
	// Steps counts monitor samples; FinalMaxTempC is the hottest block
	// temperature at the last one.
	Steps         int
	FinalMaxTempC float64
	// Migrations counts threads moved between cores by OS re-maps;
	// PhaseSwitches counts workload phase-boundary crossings.
	Migrations    int
	PhaseSwitches int
	// WearoutTime is the per-core integrated equivalent stress time (see
	// wearout.Accumulator.EquivalentTime).
	WearoutTime []float64
	// ThrottledMS is the simulated time a Scenario's governor spent with
	// a non-zero clamp.
	ThrottledMS float64
}

// System is a runnable CMP with scheduling and power management.
type System struct {
	cfg Config
}

// New validates cfg and returns a System.
func New(cfg Config) (*System, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &System{cfg: cfg}, nil
}

// Scenario is how the dynamic scenario engine (package dynamic) drives a
// System's timeline. Its governor replaces Mode's operating points: every
// thread runs at the top ladder level minus the governor's chip-wide
// clamp, floored at its core's lowest feasible level, and the governor
// observes every sample's hottest block to set the clamp for the next.
type Scenario struct {
	Governor *pm.ThrottleGovernor
	// MigrationPenaltyMS stalls a thread each time a re-map moves it.
	MigrationPenaltyMS float64
	// StartOffsetsMS, when non-nil, starts each thread part-way into its
	// phase cycle (one entry per thread).
	StartOffsetsMS []float64
	// Wearout calibrates the aging model.
	Wearout wearout.Params
}

// Run executes the workload for the given simulated duration and returns
// aggregate statistics. The number of threads must not exceed the number
// of cores. Each run draws its random streams afresh from Config.Seed, so
// repeated runs of one System on the same input return the same
// statistics.
func (s *System) Run(apps []*workload.AppProfile, durationMS float64) (*RunStats, error) {
	return s.run(apps, durationMS, Scenario{Wearout: wearout.DefaultParams()})
}

// RunScenario is Run under the scenario's throttle governor. It keeps the
// dynamic engine's conventions: it draws no power-manager stream, a cold
// chip's sensors read the core means of an ambient die, and each sample is
// traced as a dynamic.step span with dynamic.migrate and
// dynamic.emergency events.
func (s *System) RunScenario(sc Scenario, apps []*workload.AppProfile, durationMS float64) (*RunStats, error) {
	if sc.Governor == nil {
		return nil, errors.New("core: scenario requires a throttle governor")
	}
	return s.run(apps, durationMS, sc)
}

// run is the tick engine behind Run and RunScenario.
func (s *System) run(apps []*workload.AppProfile, durationMS float64, sc Scenario) (*RunStats, error) {
	c, cfg := s.cfg.Chip, &s.cfg
	nT := len(apps)
	if nT == 0 {
		return nil, errors.New("core: empty workload")
	}
	if nT > c.NumCores() {
		return nil, fmt.Errorf("core: %d threads exceed %d cores", nT, c.NumCores())
	}
	if durationMS <= 0 {
		return nil, fmt.Errorf("core: non-positive duration %v", durationMS)
	}
	if sc.StartOffsetsMS != nil && len(sc.StartOffsetsMS) != nT {
		return nil, fmt.Errorf("core: %d start offsets for %d threads", len(sc.StartOffsetsMS), nT)
	}
	scenario := sc.Governor != nil
	decides := cfg.Mode == ModeDVFS && !scenario

	rng := stats.NewRNG(cfg.Seed)
	noise := sensors.NewNoise(cfg.SensorNoise, rng.Derive(1))
	schedRNG := rng.Derive(2)
	var pmRNG *stats.RNG
	if !scenario {
		pmRNG = rng.Derive(3) // Derive advances rng; scenarios never drew 3
	}
	profRNG := rng.Derive(4)

	// Session-capable managers get per-run private state (simplex warm
	// starts); the shared Config value stays safe for concurrent runs.
	manager := cfg.Manager
	if sm, ok := manager.(pm.SessionManager); ok {
		manager = sm.NewSession()
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	aging, err := wearout.NewAccumulator(sc.Wearout, c.NumCores())
	if err != nil {
		return nil, err
	}
	elapsed := make([]float64, nT)
	copy(elapsed, sc.StartOffsetsMS)
	refIPS := make([]float64, nT)
	phaseIdx := make([]int, nT)
	for i, a := range apps {
		ipc, err := cfg.CPU.SteadyIPC(a, c.Tech.FNominalHz)
		if err != nil {
			return nil, err
		}
		refIPS[i] = ipc * c.Tech.FNominalHz
		phaseIdx[i], _ = a.PhaseIndexAt(elapsed[i])
	}
	// UniFreq caps every clock at the slowest core's rated Fmax.
	fcap := math.Inf(1)
	if cfg.Mode == ModeUniFreq {
		fcap = c.MinFmaxNominal()
	}

	// Per-sample state, reused so the loop allocates nothing per sample.
	// prevTemps chains the transient thermal state; it must not alias
	// eval.BlockTempC.
	coreInfos := sensors.CoreInfos(c)
	states := c.OffStates()
	prevTemps := c.Therm.AmbientTemps(nil)
	levels := make([]int, nT) // ladder level per thread
	stallMS := make([]float64, nT)
	ipcs := make([]float64, nT)
	freqs := make([]float64, nT)
	coreVolts := make([]float64, c.NumCores())
	top := len(c.Levels) - 1
	var (
		eval                                                chip.EvalResult
		last                                                *chip.EvalResult // nil until the first sample
		assignment                                          sched.Assignment
		snap                                                platformSnapshot
		powerAcc, dynAcc, statAcc, mipsAcc, wtpAcc, freqAcc metrics.Accumulator
		sp                                                  *trace.ActiveSpan
	)
	deviation := metrics.NewDeviationTracker(cfg.Budget.PTargetW)
	out := &RunStats{DurationMS: durationMS, Instructions: make([]float64, nT)}
	fail := func(err error) (*RunStats, error) {
		sp.End()
		return nil, err
	}

	now, nextOS, nextDVFS := 0.0, 0.0, 0.0
	for now < durationMS-1e-9 {
		dt := min(cfg.SampleIntervalMS, durationMS-now)
		stepCtx := ctx
		sp = nil // the span fail ends
		if scenario {
			if stepCtx, sp = trace.Start(ctx, "dynamic.step"); sp != nil {
				sp.AddAttr(trace.Int("tick", out.Steps), trace.Int("depth", sc.Governor.Depth()))
			}
		}

		// OS scheduling interval: re-profile and re-map threads.
		if now >= nextOS-1e-9 {
			// Temperature-aware policies read the last sample's core
			// temperatures. A cold chip reads ambient; scenario runs read
			// the core means of the ambient die, which differ from it in
			// the last bit on some cores and so change TempAware's order.
			for i := range coreInfos {
				switch {
				case last != nil:
					coreInfos[i].TempC = last.CoreTempC[i]
				case scenario:
					coreInfos[i].TempC = c.Therm.CoreMeanTemp(prevTemps, i)
				default:
					coreInfos[i].TempC = c.Therm.Config().AmbientC
				}
			}
			threadInfos, err := sensors.ProfileThreads(c, cfg.CPU, apps, elapsed, noise, profRNG)
			if err != nil {
				return fail(err)
			}
			next, err := cfg.Scheduler.Assign(coreInfos, threadInfos, schedRNG)
			if err != nil {
				return fail(err)
			}
			if err := next.Validate(c.NumCores()); err != nil {
				return fail(err)
			}
			moved := 0
			for t := range assignment {
				if next[t] != assignment[t] {
					moved++
					stallMS[t] += sc.MigrationPenaltyMS
				}
			}
			out.Migrations += moved
			if moved > 0 && sp != nil {
				trace.Event(stepCtx, "dynamic.migrate", trace.Int("threads", moved))
			}
			assignment = next
			nextOS += cfg.OSIntervalMS
			// A re-map invalidates the previous DVFS decision.
			for t := range levels {
				levels[t] = top
			}
			nextDVFS = now
		}

		// DVFS interval: re-solve the (V, f) assignment.
		if decides && now >= nextDVFS-1e-9 {
			if err := snap.fill(c, cfg.CPU, apps, assignment, elapsed, levels, last, noise); err != nil {
				return fail(err)
			}
			start := time.Now()
			lv, err := manager.Decide(ctx, &snap, cfg.Budget, pmRNG)
			d := time.Since(start)
			out.DecideTime += d
			out.DecideCount++
			if cfg.DecideHist != nil {
				cfg.DecideHist.Observe(d.Seconds())
			}
			if err != nil {
				return fail(err)
			}
			// Voltage transitions stall the core for every ladder step.
			if cfg.VTransitionUSPerStep > 0 {
				for t := range levels {
					steps := lv[t] - levels[t]
					if steps < 0 {
						steps = -steps
					}
					stallMS[t] += float64(steps) * cfg.VTransitionUSPerStep / 1000
				}
			}
			copy(levels, lv)
			nextDVFS += cfg.DVFSIntervalMS
		}

		// Operating points. The top ladder level is the nominal supply;
		// a scenario's governor clamps every thread below it.
		clear(states)
		for t, app := range apps {
			coreID := assignment[t]
			lvl := levels[t]
			if scenario {
				lvl = max(top-sc.Governor.Depth(), c.MinLevelIndex(coreID))
			}
			v := c.Levels[lvl]
			f := min(c.FmaxAt(coreID, v), fcap)
			states[coreID] = chip.CoreState{App: app, V: v, F: f, ElapsedMS: elapsed[t]}
			freqs[t] = f
		}
		if cfg.TransientThermal {
			if err := c.EvaluateTransientInto(&eval, states, cfg.CPU, prevTemps, dt); err != nil {
				return fail(err)
			}
			copy(prevTemps, eval.BlockTempC)
		} else if err := c.EvaluateInto(&eval, states, cfg.CPU); err != nil {
			return fail(err)
		}
		last = &eval

		// Progress, phase crossings, and stalls (voltage transitions,
		// migrations): a stalled core burns a share of the sample without
		// retiring instructions.
		for t, app := range apps {
			ipcs[t] = eval.CoreIPC[assignment[t]]
			if stall := min(stallMS[t], dt); stall > 0 {
				stallMS[t] -= stall
				ipcs[t] *= 1 - stall/dt
			}
			out.Instructions[t] += ipcs[t] * freqs[t] * dt / 1000
			elapsed[t] += dt
			if idx, _ := app.PhaseIndexAt(elapsed[t]); idx != phaseIdx[t] {
				phaseIdx[t] = idx
				out.PhaseSwitches++
			}
		}
		for core := range coreVolts {
			coreVolts[core] = states[core].V // 0 when powered off
		}
		if err := aging.Add(eval.CoreTempC, coreVolts, dt); err != nil {
			return fail(err)
		}

		mt := c.Therm.MaxTemp(eval.BlockTempC)
		mips := metrics.MIPS(ipcs, freqs)
		if cfg.CaptureTrace {
			out.Trace = append(out.Trace, TracePoint{TimeMS: now, PowerW: eval.TotalW, MIPS: mips, MaxTempC: mt})
		}
		if now+dt > cfg.WarmupMS {
			wtp, err := metrics.WeightedThroughput(ipcs, freqs, refIPS)
			if err != nil {
				return fail(err)
			}
			powerAcc.Add(eval.TotalW, dt)
			dynAcc.Add(eval.DynW, dt)
			statAcc.Add(eval.StaticW, dt)
			mipsAcc.Add(mips, dt)
			wtpAcc.Add(wtp, dt)
			freqAcc.Add(stats.Mean(freqs), dt)
			if decides {
				deviation.Sample(eval.TotalW)
			}
			out.MaxTempC = max(out.MaxTempC, mt)
		}
		out.FinalMaxTempC = mt
		// The governor observes this sample's peak and sets the clamp for
		// the next.
		if scenario {
			depth, tripped := sc.Governor.Observe(mt, top)
			if tripped && sp != nil {
				trace.Event(stepCtx, "dynamic.emergency",
					trace.Int("depth", depth), trace.String("maxC", fmt.Sprintf("%.1f", mt)))
			}
			if depth > 0 {
				out.ThrottledMS += dt
			}
		}
		sp.End()
		out.Steps++
		now += dt
	}

	out.AvgPowerW = powerAcc.Mean()
	out.AvgDynW = dynAcc.Mean()
	out.AvgStatW = statAcc.Mean()
	out.MIPS = mipsAcc.Mean()
	out.WeightedTP = wtpAcc.Mean()
	out.AvgActiveFreqHz = freqAcc.Mean()
	out.EDSquared = metrics.EDSquared(out.AvgPowerW, out.MIPS)
	out.PowerDeviationPct = deviation.MeanPct()
	out.WearoutIndex = aging.Index()
	out.WearoutMax = aging.Max()
	out.WearoutTime = aging.EquivalentTime()
	return out, nil
}
