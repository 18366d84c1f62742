package main

import "os"

// Example pins the report: it compares three policies' aging under thermal
// inertia through the public API and the tick engine.
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// 12 threads, NUniFreq, 500 ms with thermal inertia (100 ms warmup excluded):
	// policy             MIPS   power(W)    maxT(C)    worst aging
	// Random            30786       65.7       83.6          1.15x
	// VarP&AppP         29789       59.8       72.2          1.78x
	// TempAware         30585       63.2       69.7          0.98x
	//
	// TempAware keeps moving the heat: no core stays hot long enough to
	// age fast, so the lifetime-limiting core ages slower at essentially
	// no throughput cost. Static pinning (VarP&AppP) saves power but parks
	// the hottest threads on the same cores for the whole run.
}
