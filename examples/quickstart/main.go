// Quickstart: build one variation-affected 20-core die, run an 8-thread
// SPEC mix under a 40 W budget with variation-aware scheduling and LinOpt
// power management, and print what happened.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"vasched"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the example, writing its report to w.
func run(w io.Writer) error {
	// A Platform is one manufactured die: because of process variation its
	// cores differ in maximum frequency and leakage.
	plat, err := vasched.NewPlatform(vasched.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "per-core characterisation (variation makes them differ):")
	for core := 0; core < plat.NumCores(); core++ {
		fmt.Fprintf(w, "  C%-2d  Fmax %.2f GHz   static %.2f W\n",
			core+1, plat.CoreFmaxGHz(core), plat.CoreStaticPowerW(core))
	}

	// VarF&AppIPC scheduling + LinOpt DVFS at a 40 W chip budget.
	sys, err := plat.NewSystem(vasched.SystemConfig{
		Scheduler: vasched.SchedVarFAppIPC,
		Mode:      vasched.ModeDVFS,
		Manager:   vasched.ManagerLinOpt,
		PTargetW:  40,
		PCoreMaxW: 8, // per-core cap; 8 threads may each use a fair share
	})
	if err != nil {
		return err
	}

	apps := []string{"bzip2", "mcf", "vortex", "swim", "crafty", "art", "gap", "twolf"}
	stats, err := sys.Run(apps, 200) // 200 ms of simulated time
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "\n8 threads for %.0f ms under a 40 W budget with %s+%s:\n",
		stats.DurationMS, vasched.SchedVarFAppIPC, vasched.ManagerLinOpt)
	fmt.Fprintf(w, "  throughput        %8.0f MIPS (weighted %.2f)\n", stats.MIPS, stats.WeightedThroughput)
	fmt.Fprintf(w, "  power             %8.1f W (dyn %.1f + static %.1f)\n",
		stats.AvgPowerW, stats.DynPowerW, stats.StaticPowerW)
	fmt.Fprintf(w, "  deviation from target %5.2f%%\n", stats.PowerDeviationPct)
	fmt.Fprintf(w, "  mean frequency    %8.2f GHz, hottest block %.1f C\n",
		stats.AvgFrequencyGHz, stats.MaxTempC)
	for i, app := range apps {
		fmt.Fprintf(w, "  %-8s ran %7.0f M instructions\n", app, stats.InstructionsM[i])
	}
	return nil
}
