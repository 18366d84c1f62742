// Binning: a manufacturing-side study. Generate a batch of dies from the
// same process, characterise each one, and bin them by their slowest core
// (the frequency the whole chip would have to ship at in a UniFreq world)
// versus their fastest core — the spread the paper's Figure 4 quantifies
// and variation-aware scheduling monetises.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"vasched"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the example, writing its report to w.
func run(w io.Writer) error {
	const dies = 30

	type bin struct {
		die              int
		slowGHz, fastGHz float64
		leakMin, leakMax float64
	}
	var bins []bin

	for die := 0; die < dies; die++ {
		opt := vasched.DefaultOptions()
		opt.DieIndex = die
		opt.GridSize = 128 // coarser maps are plenty for binning statistics
		plat, err := vasched.NewPlatform(opt)
		if err != nil {
			return err
		}
		b := bin{die: die, slowGHz: 1e18, leakMin: 1e18}
		for core := 0; core < plat.NumCores(); core++ {
			f := plat.CoreFmaxGHz(core)
			l := plat.CoreStaticPowerW(core)
			if f < b.slowGHz {
				b.slowGHz = f
			}
			if f > b.fastGHz {
				b.fastGHz = f
			}
			if l < b.leakMin {
				b.leakMin = l
			}
			if l > b.leakMax {
				b.leakMax = l
			}
		}
		bins = append(bins, b)
	}

	sort.Slice(bins, func(i, j int) bool { return bins[i].slowGHz > bins[j].slowGHz })
	fmt.Fprintf(w, "%d dies sorted by shippable (slowest-core) frequency:\n", dies)
	fmt.Fprintf(w, "%-6s %10s %10s %8s %14s\n", "die", "slow(GHz)", "fast(GHz)", "spread", "leak min..max")
	for _, b := range bins {
		fmt.Fprintf(w, "%-6d %10.2f %10.2f %7.0f%% %7.1f..%.1f W\n",
			b.die, b.slowGHz, b.fastGHz, (b.fastGHz/b.slowGHz-1)*100, b.leakMin, b.leakMax)
	}

	best, worst := bins[0], bins[len(bins)-1]
	fmt.Fprintf(w, "\nbinning value: the best die ships %.0f%% faster than the worst in a\n",
		(best.slowGHz/worst.slowGHz-1)*100)
	fmt.Fprintln(w, "UniFreq world; per-core frequency domains (NUniFreq) recover the")
	fmt.Fprintf(w, "fast cores on every die — up to %.0f%% headroom on the worst die alone.\n",
		(worst.fastGHz/worst.slowGHz-1)*100)
	return nil
}
