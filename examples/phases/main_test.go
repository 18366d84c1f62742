package main

import "os"

// Example pins the report: it runs LinOpt at three DVFS intervals through
// the public API and the tick engine.
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// LinOpt every   500 ms:     31108 MIPS   power  56.8 W (target 60)   |deviation|  6.89%
	// LinOpt every   100 ms:     31414 MIPS   power  59.4 W (target 60)   |deviation|  4.51%
	// LinOpt every    10 ms:     31513 MIPS   power  60.0 W (target 60)   |deviation|  0.16%
	//
	// shorter intervals track phase changes: power hugs the target and
	// the budget freed by low-activity phases is immediately re-spent.
}
