// Phases: why LinOpt runs every 10 ms (the paper's Figure 14 intuition).
// Applications move through program phases with different IPC and power;
// a power manager that re-solves rarely either wastes budget or overshoots
// it as the workload drifts. This example runs the same phase-heavy
// workload with a 10 ms and a 500 ms LinOpt interval and compares
// throughput and power-tracking quality.
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
	plat, err := vasched.NewPlatform(vasched.DefaultOptions())
	if err != nil {
		return err
	}

	// A workload dominated by phase-heavy applications (bzip2, gzip, art,
	// swim, applu, mcf all alternate high/low-activity phases).
	apps := []string{"bzip2", "gzip", "art", "swim", "applu", "mcf", "equake", "parser",
		"bzip2", "gzip", "art", "swim", "applu", "mcf", "equake", "parser"}

	for _, intervalMS := range []float64{500, 100, 10} {
		sys, err := plat.NewSystem(vasched.SystemConfig{
			Scheduler:      vasched.SchedVarFAppIPC,
			Mode:           vasched.ModeDVFS,
			Manager:        vasched.ManagerLinOpt,
			PTargetW:       60,
			DVFSIntervalMS: intervalMS,
			OSIntervalMS:   2000, // keep the thread map fixed; isolate DVFS
		})
		if err != nil {
			return err
		}
		st, err := sys.Run(apps, 1500)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "LinOpt every %5.0f ms:  %8.0f MIPS   power %5.1f W (target 60)   |deviation| %5.2f%%\n",
			intervalMS, st.MIPS, st.AvgPowerW, st.PowerDeviationPct)
	}
	fmt.Fprintln(w, "\nshorter intervals track phase changes: power hugs the target and")
	fmt.Fprintln(w, "the budget freed by low-activity phases is immediately re-spent.")
	return nil
}
