// Lifetime: the wearout consequences of scheduling policy (the paper's
// Section 8 future-work items 1 and 2, runnable through the public API).
// A CMP's lifetime is set by its fastest-aging core; aging accelerates
// exponentially with temperature and with supply voltage. This example
// runs the same 12-thread workload under three policies — Random,
// VarP&AppP (static power-aware pinning), and TempAware (migrating hot
// threads onto currently-cool cores) — with thermal inertia modelled, and
// compares throughput, peak temperature, and the worst core's aging rate.
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

	apps := []string{"vortex", "applu", "crafty", "bzip2", "gap", "gzip",
		"parser", "mgrid", "twolf", "swim", "art", "equake"}

	fmt.Fprintln(w, "12 threads, NUniFreq, 500 ms with thermal inertia (100 ms warmup excluded):")
	fmt.Fprintf(w, "%-12s %10s %10s %10s %14s\n", "policy", "MIPS", "power(W)", "maxT(C)", "worst aging")
	for _, policy := range []string{vasched.SchedRandom, vasched.SchedVarPAppP, vasched.SchedTempAware} {
		sys, err := plat.NewSystem(vasched.SystemConfig{
			Scheduler:        policy,
			Mode:             vasched.ModeNUniFreq,
			OSIntervalMS:     20, // re-map (and hence migrate) every 20 ms
			TransientThermal: true,
			WarmupMS:         100,
		})
		if err != nil {
			return err
		}
		st, err := sys.Run(apps, 500)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %10.0f %10.1f %10.1f %13.2fx\n",
			policy, st.MIPS, st.AvgPowerW, st.MaxTempC, st.WearoutMax)
	}
	fmt.Fprintln(w, "\nTempAware keeps moving the heat: no core stays hot long enough to")
	fmt.Fprintln(w, "age fast, so the lifetime-limiting core ages slower at essentially")
	fmt.Fprintln(w, "no throughput cost. Static pinning (VarP&AppP) saves power but parks")
	fmt.Fprintln(w, "the hottest threads on the same cores for the whole run.")
	return nil
}
