package core

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"vasched/internal/chip"
	"vasched/internal/cpusim"
	"vasched/internal/delay"
	"vasched/internal/floorplan"
	"vasched/internal/pm"
	"vasched/internal/power"
	"vasched/internal/sched"
	"vasched/internal/stats"
	"vasched/internal/thermal"
	"vasched/internal/trace"
	"vasched/internal/varmodel"
	"vasched/internal/wearout"
	"vasched/internal/workload"
)

var (
	buildOnce sync.Once
	theChip   *chip.Chip
	theCPU    *cpusim.Model
	buildErr  error
)

func testSystemParts(t *testing.T) (*chip.Chip, *cpusim.Model) {
	t.Helper()
	buildOnce.Do(func() {
		cfg := varmodel.DefaultConfig()
		cfg.GridRows, cfg.GridCols = 64, 64
		g, err := varmodel.NewGenerator(cfg)
		if err != nil {
			buildErr = err
			return
		}
		maps, err := g.Die(8, 0)
		if err != nil {
			buildErr = err
			return
		}
		theChip, buildErr = chip.Build(maps, floorplan.New20CoreCMP(), delay.DefaultConfig(),
			power.DefaultModel(cfg.Tech), thermal.DefaultConfig())
		if buildErr != nil {
			return
		}
		theCPU, buildErr = cpusim.New(cpusim.DefaultCoreConfig(), workload.SPEC())
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return theChip, theCPU
}

func mustPolicy(t *testing.T, name string) sched.Policy {
	t.Helper()
	p, err := sched.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	c, cpu := testSystemParts(t)
	pol := mustPolicy(t, sched.NameRandom)
	cases := []Config{
		{},
		{Chip: c, CPU: cpu},
		{Chip: c, CPU: cpu, Scheduler: pol, Mode: ModeDVFS},
		{Chip: c, CPU: cpu, Scheduler: pol, Mode: ModeDVFS, Manager: pm.NewFoxton()},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
	good := Config{Chip: c, CPU: cpu, Scheduler: pol, Mode: ModeNUniFreq}
	if _, err := New(good); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if ModeUniFreq.String() != "UniFreq" || ModeNUniFreq.String() != "NUniFreq" ||
		ModeDVFS.String() != "NUniFreq+DVFS" {
		t.Fatal("mode names wrong")
	}
}

func runOnce(t *testing.T, mode Mode, schedName string, mgr pm.Manager, budget pm.Budget, nThreads int, seed int64) *RunStats {
	t.Helper()
	c, cpu := testSystemParts(t)
	sys, err := New(Config{
		Chip: c, CPU: cpu,
		Scheduler: mustPolicy(t, schedName),
		Mode:      mode, Manager: mgr, Budget: budget,
		SampleIntervalMS: 2, // coarser sampling keeps tests fast
		Seed:             seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	apps := workload.Mix(stats.NewRNG(seed), nThreads)
	st, err := sys.Run(apps, 40)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRunUniFreqBasics(t *testing.T) {
	st := runOnce(t, ModeUniFreq, sched.NameVarP, nil, pm.Budget{}, 4, 1)
	if st.MIPS <= 0 || st.AvgPowerW <= 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	if st.PowerDeviationPct != 0 {
		t.Fatal("deviation tracked without a budget")
	}
	if len(st.Instructions) != 4 {
		t.Fatalf("instructions for %d threads", len(st.Instructions))
	}
	for i, ins := range st.Instructions {
		if ins <= 0 {
			t.Fatalf("thread %d made no progress", i)
		}
	}
}

func TestNUniFreqFasterThanUniFreq(t *testing.T) {
	uni := runOnce(t, ModeUniFreq, sched.NameRandom, nil, pm.Budget{}, 8, 3)
	nuni := runOnce(t, ModeNUniFreq, sched.NameRandom, nil, pm.Budget{}, 8, 3)
	// Section 7.4: NUniFreq raises average frequency (and power).
	if nuni.AvgActiveFreqHz <= uni.AvgActiveFreqHz {
		t.Fatalf("NUniFreq freq %v not above UniFreq %v", nuni.AvgActiveFreqHz, uni.AvgActiveFreqHz)
	}
	if nuni.AvgPowerW <= uni.AvgPowerW {
		t.Fatalf("NUniFreq power %v not above UniFreq %v", nuni.AvgPowerW, uni.AvgPowerW)
	}
}

func TestVarPSavesPowerOverRandom(t *testing.T) {
	// Average over several seeds: Random sometimes picks good cores too.
	var rnd, varp float64
	for seed := int64(0); seed < 4; seed++ {
		rnd += runOnce(t, ModeUniFreq, sched.NameRandom, nil, pm.Budget{}, 4, 10+seed).AvgPowerW
		varp += runOnce(t, ModeUniFreq, sched.NameVarP, nil, pm.Budget{}, 4, 10+seed).AvgPowerW
	}
	if varp >= rnd {
		t.Fatalf("VarP power %v not below Random %v", varp/4, rnd/4)
	}
}

func TestDVFSRespectsBudget(t *testing.T) {
	b := pm.Budget{PTargetW: 60, PCoreMaxW: 6}
	st := runOnce(t, ModeDVFS, sched.NameVarFAppIPC, pm.NewLinOpt(), b, 12, 4)
	// Average power should sit near (and essentially under) the target.
	if st.AvgPowerW > b.PTargetW*1.03 {
		t.Fatalf("average power %v far above target %v", st.AvgPowerW, b.PTargetW)
	}
	if st.DecideCount == 0 || st.DecideTime <= 0 {
		t.Fatalf("manager never invoked: %+v", st)
	}
	if st.PowerDeviationPct <= 0 {
		t.Fatal("no deviation samples under a budget")
	}
}

func TestLinOptBeatsFoxtonUnderTightBudget(t *testing.T) {
	b := pm.Budget{PTargetW: 50, PCoreMaxW: 5}
	var fox, lin float64
	for seed := int64(0); seed < 3; seed++ {
		fox += runOnce(t, ModeDVFS, sched.NameVarFAppIPC, pm.NewFoxton(), b, 16, 20+seed).MIPS
		lin += runOnce(t, ModeDVFS, sched.NameVarFAppIPC, pm.NewLinOpt(), b, 16, 20+seed).MIPS
	}
	if lin <= fox {
		t.Fatalf("LinOpt MIPS %v not above Foxton* %v", lin/3, fox/3)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := runOnce(t, ModeDVFS, sched.NameVarFAppIPC, pm.NewLinOpt(), pm.Budget{PTargetW: 55, PCoreMaxW: 6}, 8, 7)
	b := runOnce(t, ModeDVFS, sched.NameVarFAppIPC, pm.NewLinOpt(), pm.Budget{PTargetW: 55, PCoreMaxW: 6}, 8, 7)
	if a.MIPS != b.MIPS || a.AvgPowerW != b.AvgPowerW {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v", a.MIPS, a.AvgPowerW, b.MIPS, b.AvgPowerW)
	}
}

// TestRunRepeatable: every Run draws its random streams afresh from the
// seed, so running one System twice on the same input repeats the result.
func TestRunRepeatable(t *testing.T) {
	c, cpu := testSystemParts(t)
	apps := workload.Mix(stats.NewRNG(7), 8)
	for _, mode := range []Mode{ModeNUniFreq, ModeDVFS} {
		sys, err := New(Config{
			Chip: c, CPU: cpu, Scheduler: mustPolicy(t, sched.NameRandom),
			Mode: mode, Manager: pm.NewLinOpt(), Budget: pm.Budget{PTargetW: 50, PCoreMaxW: 6},
			SampleIntervalMS: 2, OSIntervalMS: 10, SensorNoise: 0.05, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		a, err := sys.Run(apps, 40)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sys.Run(apps, 40)
		if err != nil {
			t.Fatal(err)
		}
		a.DecideTime, b.DecideTime = 0, 0 // wall clock
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: second run differs: MIPS %v vs %v, power %v vs %v",
				mode, a.MIPS, b.MIPS, a.AvgPowerW, b.AvgPowerW)
		}
	}
}

// TestRunTracesNoSamples: only scenario runs trace their samples. A
// fixed-clock System run under a tracer records no spans at all.
func TestRunTracesNoSamples(t *testing.T) {
	c, cpu := testSystemParts(t)
	tr := trace.New(trace.DefaultCapacity)
	sys, err := New(Config{
		Chip: c, CPU: cpu, Scheduler: mustPolicy(t, sched.NameRandom), Mode: ModeNUniFreq,
		TransientThermal: true, SampleIntervalMS: 2, OSIntervalMS: 10, Seed: 3,
		Ctx: trace.WithTracer(context.Background(), tr),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(workload.Mix(stats.NewRNG(3), 8), 40); err != nil {
		t.Fatal(err)
	}
	if n := tr.Len(); n != 0 {
		t.Fatalf("System run recorded %d spans: %v", n, tr.Snapshot()[0].Name)
	}
}

// TestRunScenario drives the scenario entry point directly: the governor
// replaces Mode's operating points, re-maps charge the migration penalty,
// and a throttled run counts its clamped time.
func TestRunScenario(t *testing.T) {
	c, cpu := testSystemParts(t)
	sys, err := New(Config{
		Chip: c, CPU: cpu, Scheduler: mustPolicy(t, sched.NameRandom), Mode: ModeNUniFreq,
		TransientThermal: true, SampleIntervalMS: 2, OSIntervalMS: 10, Seed: 3,
		Ctx: trace.WithTracer(context.Background(), trace.New(trace.DefaultCapacity)),
	})
	if err != nil {
		t.Fatal(err)
	}
	apps := workload.Mix(stats.NewRNG(3), 16)
	if _, err := sys.RunScenario(Scenario{Wearout: wearout.DefaultParams()}, apps, 40); err == nil {
		t.Fatal("scenario without a governor accepted")
	}
	gov, err := pm.NewThrottleGovernor(c.Therm.Config().AmbientC+1, c.Therm.Config().AmbientC)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.RunScenario(Scenario{Governor: gov, MigrationPenaltyMS: 1, Wearout: wearout.DefaultParams()}, apps, 40)
	if err != nil {
		t.Fatal(err)
	}
	if st.Steps != 20 || st.Migrations == 0 || gov.Emergencies() == 0 || st.ThrottledMS <= 0 {
		t.Fatalf("steps %d, migrations %d, emergencies %d, throttled %v ms",
			st.Steps, st.Migrations, gov.Emergencies(), st.ThrottledMS)
	}
	if st.DecideCount != 0 || st.PowerDeviationPct != 0 {
		t.Fatalf("scenario consulted the power manager: %+v", st)
	}
}

func TestRunValidation(t *testing.T) {
	c, cpu := testSystemParts(t)
	sys, err := New(Config{Chip: c, CPU: cpu, Scheduler: mustPolicy(t, sched.NameRandom), Mode: ModeNUniFreq})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(nil, 10); err == nil {
		t.Fatal("empty workload accepted")
	}
	apps := workload.Mix(stats.NewRNG(1), 21)
	if _, err := sys.Run(apps, 10); err == nil {
		t.Fatal("oversubscribed workload accepted")
	}
	if _, err := sys.Run(apps[:2], -1); err == nil {
		t.Fatal("negative duration accepted")
	}
}

func TestWeightedObjectiveImprovesWeightedTP(t *testing.T) {
	b := pm.Budget{PTargetW: 50, PCoreMaxW: 5}
	var mipsObj, wObj float64
	for seed := int64(0); seed < 3; seed++ {
		mipsObj += runOnce(t, ModeDVFS, sched.NameVarFAppIPC, pm.NewLinOpt(), b, 16, 30+seed).WeightedTP
		wObj += runOnce(t, ModeDVFS, sched.NameVarFAppIPC,
			pm.LinOpt{FitPoints: 3, Objective: pm.ObjWeighted}, b, 16, 30+seed).WeightedTP
	}
	if wObj <= mipsObj {
		t.Fatalf("weighted objective did not improve weighted TP: %v vs %v", wObj/3, mipsObj/3)
	}
}

func TestEDSquaredConsistent(t *testing.T) {
	st := runOnce(t, ModeNUniFreq, sched.NameVarFAppIPC, nil, pm.Budget{}, 6, 9)
	want := st.AvgPowerW / math.Pow(st.MIPS, 3)
	if math.Abs(st.EDSquared-want) > 1e-18 {
		t.Fatalf("ED2 %v inconsistent with %v", st.EDSquared, want)
	}
}

func TestTransientThermalMode(t *testing.T) {
	c, cpu := testSystemParts(t)
	mk := func(transient bool, durMS float64) *RunStats {
		sys, err := New(Config{
			Chip: c, CPU: cpu, Scheduler: mustPolicy(t, sched.NameVarFAppIPC),
			Mode: ModeNUniFreq, TransientThermal: transient,
			SampleIntervalMS: 2, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		apps := workload.Mix(stats.NewRNG(11), 10)
		st, err := sys.Run(apps, durMS)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	steady := mk(false, 40)
	short := mk(true, 40)
	// Early in a transient run the chip is still cold, so temperatures —
	// and with them leakage power — must sit below the steady-state
	// figures.
	if short.MaxTempC >= steady.MaxTempC {
		t.Fatalf("transient max temp %v not below steady-state %v", short.MaxTempC, steady.MaxTempC)
	}
	if short.AvgStatW >= steady.AvgStatW {
		t.Fatalf("transient leakage %v not below steady-state %v", short.AvgStatW, steady.AvgStatW)
	}
	// Run long enough and the transient mode approaches the steady state.
	long := mk(true, 400)
	if d := long.MaxTempC - steady.MaxTempC; d > 3 || d < -8 {
		t.Fatalf("long transient max temp %v vs steady %v", long.MaxTempC, steady.MaxTempC)
	}
}

func TestFrozenSnapshot(t *testing.T) {
	c, cpu := testSystemParts(t)
	apps := workload.Mix(stats.NewRNG(3), 6)
	plat, err := FrozenSnapshot(c, cpu, apps, 7)
	if err != nil {
		t.Fatal(err)
	}
	if plat.NumCores() != 6 {
		t.Fatalf("snapshot covers %d cores", plat.NumCores())
	}
	if plat.NumLevels() != len(c.Levels) {
		t.Fatalf("snapshot has %d levels", plat.NumLevels())
	}
	top := plat.NumLevels() - 1
	for i := 0; i < plat.NumCores(); i++ {
		if plat.FreqAt(i, top) <= 0 {
			t.Fatalf("core %d infeasible at top level", i)
		}
		if plat.PowerAt(i, top) <= plat.PowerAt(i, top-2) {
			t.Fatalf("core %d power not increasing in level", i)
		}
		if plat.IPC(i) <= 0 || plat.RefIPS(i) <= 0 {
			t.Fatalf("core %d missing IPC/reference", i)
		}
	}
	if plat.UncorePowerW() <= 0 {
		t.Fatal("no uncore power")
	}
	// The frozen snapshot must expose true frequency-dependent IPC for
	// the Oracle ablation; for a memory-bound thread it rises as the
	// level (and with it the clock) falls.
	tip, ok := plat.(pm.TrueIPCPlatform)
	if !ok {
		t.Fatal("snapshot does not implement TrueIPCPlatform")
	}
	for i := 0; i < plat.NumCores(); i++ {
		lo := tip.TrueIPCAt(i, top)
		hi := tip.TrueIPCAt(i, top-4)
		if hi < lo-1e-12 {
			t.Fatalf("core %d true IPC fell as frequency dropped: %v -> %v", i, lo, hi)
		}
	}
}

func TestCaptureTrace(t *testing.T) {
	c, cpu := testSystemParts(t)
	sys, err := New(Config{
		Chip: c, CPU: cpu, Scheduler: mustPolicy(t, sched.NameVarFAppIPC),
		Mode: ModeNUniFreq, CaptureTrace: true,
		SampleIntervalMS: 2, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	apps := workload.Mix(stats.NewRNG(13), 5)
	st, err := sys.Run(apps, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Trace) != 10 {
		t.Fatalf("trace has %d points, want 10", len(st.Trace))
	}
	for i, p := range st.Trace {
		if p.PowerW <= 0 || p.MIPS <= 0 || p.MaxTempC <= 0 {
			t.Fatalf("degenerate trace point %d: %+v", i, p)
		}
		if i > 0 && p.TimeMS <= st.Trace[i-1].TimeMS {
			t.Fatalf("trace time not increasing at %d", i)
		}
	}
	// Without the flag, no trace.
	sys2, err := New(Config{
		Chip: c, CPU: cpu, Scheduler: mustPolicy(t, sched.NameVarFAppIPC),
		Mode: ModeNUniFreq, SampleIntervalMS: 2, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := sys2.Run(apps, 20)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Trace != nil {
		t.Fatal("trace captured without the flag")
	}
}
