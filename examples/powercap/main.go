// Powercap: a data-centre-style study. A fully loaded 20-core CMP is
// driven through a sweep of chip power caps (the paper's Figure 12
// scenario) and the four algorithm combinations from the paper's Table 1
// are compared: how much throughput does each policy recover at every cap,
// and what does that do to ED^2?
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"vasched"
)

type combo struct {
	label     string
	scheduler string
	manager   string
}

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

	// One full-occupancy workload: every SPEC app once, plus repeats.
	apps := vasched.SPECApps()
	for len(apps) < plat.NumCores() {
		apps = append(apps, apps[len(apps)%14])
	}
	apps = apps[:plat.NumCores()]

	combos := []combo{
		{"Random+Foxton*", vasched.SchedRandom, vasched.ManagerFoxton},
		{"VarF&AppIPC+Foxton*", vasched.SchedVarFAppIPC, vasched.ManagerFoxton},
		{"VarF&AppIPC+LinOpt", vasched.SchedVarFAppIPC, vasched.ManagerLinOpt},
		{"VarF&AppIPC+SAnn", vasched.SchedVarFAppIPC, vasched.ManagerSAnn},
	}

	for _, cap := range []float64{50, 65, 80, 95} {
		fmt.Fprintf(w, "==== power cap %.0f W ====\n", cap)
		var baseMIPS, baseED2 float64
		for i, cb := range combos {
			sys, err := plat.NewSystem(vasched.SystemConfig{
				Scheduler: cb.scheduler,
				Mode:      vasched.ModeDVFS,
				Manager:   cb.manager,
				PTargetW:  cap,
			})
			if err != nil {
				return err
			}
			st, err := sys.Run(apps, 100)
			if err != nil {
				return err
			}
			if i == 0 {
				baseMIPS, baseED2 = st.MIPS, st.EDSquared
			}
			fmt.Fprintf(w, "%-22s %8.0f MIPS (%+5.1f%%)   P=%5.1f W   ED^2 %+6.1f%%\n",
				cb.label, st.MIPS, (st.MIPS/baseMIPS-1)*100,
				st.AvgPowerW, (st.EDSquared/baseED2-1)*100)
		}
		fmt.Fprintln(w)
	}
	return nil
}
