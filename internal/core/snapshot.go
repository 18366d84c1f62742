package core

import (
	"vasched/internal/chip"
	"vasched/internal/cpusim"
	"vasched/internal/sched"
	"vasched/internal/sensors"
	"vasched/internal/workload"
)

// platformSnapshot implements pm.Platform and pm.TrueIPCPlatform over
// precomputed tables, making every manager query O(1). The tables are
// refilled in place at every decision.
//
// The snapshot is the chip at a scheduling instant: for each active core,
// the sensor-measured power of its thread-core pair at every ladder level
// (at the block temperatures of the last evaluation — power profiling
// happens under current thermal conditions), the thread's current IPC, and
// the manufacturer V/f table. The true frequency-dependent IPC serves the
// Oracle ablation; the paper's managers never read it.
type platformSnapshot struct {
	levels []float64
	freq   [][]float64 // [active core][level]
	power  [][]float64
	tipc   [][]float64 // true (frequency-dependent) IPC
	ipc    []float64   // sensor IPC at the profiling point
	refIPS []float64   // per-thread reference IPS for weighted objectives
	uncore float64
}

// fill measures the platform for threads apps placed by assignment.
// curLevels holds each thread's current ladder level (nil: the top);
// last is the previous evaluation (nil on a cold chip).
func (p *platformSnapshot) fill(c *chip.Chip, cpu *cpusim.Model, apps []*workload.AppProfile, assignment sched.Assignment, elapsedMS []float64, curLevels []int, last *chip.EvalResult, noise sensors.Noise) error {
	n, nl := len(apps), len(c.Levels)
	if len(p.ipc) != n {
		*p = platformSnapshot{freq: grid(n, nl), power: grid(n, nl), tipc: grid(n, nl),
			ipc: make([]float64, n), refIPS: make([]float64, n)}
	}
	p.levels = c.Levels
	// Uncore power: the shared L2 from the last evaluation, or its
	// zero-load leakage estimate before the first one.
	if last != nil {
		p.uncore = last.L2PowerW
	} else {
		p.uncore = c.Power.L2StaticW(c.Maps, c.FP, c.Tech.TRefC)
	}

	for t, app := range apps {
		coreID := assignment[t]
		ref, err := cpu.SteadyIPC(app, c.Tech.FNominalHz)
		if err != nil {
			return err
		}
		p.refIPS[t] = ref * c.Tech.FNominalHz
		temp := c.Tech.TRefC
		if last != nil {
			temp = last.CoreTempC[coreID]
		}
		phase := app.PhaseAt(elapsedMS[t])
		for li, v := range c.Levels {
			f := c.FmaxAt(coreID, v)
			p.freq[t][li], p.power[t][li], p.tipc[t][li] = f, 0, 0
			if f <= 0 {
				continue
			}
			ipcAt, err := cpu.IPC(app, phase, f)
			if err != nil {
				return err
			}
			p.tipc[t][li] = ipcAt
			stat := c.CoreStaticCached(coreID, v, temp)
			dyn := c.Power.DynamicCoreW(app.DynPowerW*phase.PowerScale, app.IPCNom, v, f, ipcAt)
			p.power[t][li] = noise.Read(stat + dyn)
		}
		// The IPC sensor reads the thread at its current operating point
		// (the previous decision's level; the top level before the first
		// decision).
		cur := nl - 1
		if curLevels != nil && p.freq[t][curLevels[t]] > 0 {
			cur = curLevels[t]
		}
		p.ipc[t] = noise.Read(p.tipc[t][cur])
	}
	return nil
}

// grid allocates an n×m table.
func grid(n, m int) [][]float64 {
	g := make([][]float64, n)
	for i := range g {
		g[i] = make([]float64, m)
	}
	return g
}

func (p *platformSnapshot) NumCores() int              { return len(p.ipc) }
func (p *platformSnapshot) NumLevels() int             { return len(p.levels) }
func (p *platformSnapshot) VoltageAt(l int) float64    { return p.levels[l] }
func (p *platformSnapshot) FreqAt(c, l int) float64    { return p.freq[c][l] }
func (p *platformSnapshot) PowerAt(c, l int) float64   { return p.power[c][l] }
func (p *platformSnapshot) IPC(c int) float64          { return p.ipc[c] }
func (p *platformSnapshot) UncorePowerW() float64      { return p.uncore }
func (p *platformSnapshot) RefIPS(c int) float64       { return p.refIPS[c] }
func (p *platformSnapshot) TrueIPCAt(c, l int) float64 { return p.tipc[c][l] }
