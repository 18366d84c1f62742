package main

import "os"

// Example pins the report: it sweeps four power caps across the four Table
// 1 combinations through the public API and the tick engine.
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// ==== power cap 50 W ====
	// Random+Foxton*            39446 MIPS ( +0.0%)   P= 49.9 W   ED^2   +0.0%
	// VarF&AppIPC+Foxton*       40551 MIPS ( +2.8%)   P= 49.7 W   ED^2   -8.3%
	// VarF&AppIPC+LinOpt        41370 MIPS ( +4.9%)   P= 50.1 W   ED^2  -12.9%
	// VarF&AppIPC+SAnn          41651 MIPS ( +5.6%)   P= 50.0 W   ED^2  -14.7%
	//
	// ==== power cap 65 W ====
	// Random+Foxton*            43289 MIPS ( +0.0%)   P= 65.0 W   ED^2   +0.0%
	// VarF&AppIPC+Foxton*       44524 MIPS ( +2.9%)   P= 64.9 W   ED^2   -8.2%
	// VarF&AppIPC+LinOpt        45542 MIPS ( +5.2%)   P= 65.3 W   ED^2  -13.7%
	// VarF&AppIPC+SAnn          45762 MIPS ( +5.7%)   P= 65.3 W   ED^2  -15.0%
	//
	// ==== power cap 80 W ====
	// Random+Foxton*            46412 MIPS ( +0.0%)   P= 80.3 W   ED^2   +0.0%
	// VarF&AppIPC+Foxton*       47528 MIPS ( +2.4%)   P= 80.3 W   ED^2   -6.9%
	// VarF&AppIPC+LinOpt        48547 MIPS ( +4.6%)   P= 80.7 W   ED^2  -12.2%
	// VarF&AppIPC+SAnn          48849 MIPS ( +5.3%)   P= 80.6 W   ED^2  -13.9%
	//
	// ==== power cap 95 W ====
	// Random+Foxton*            48777 MIPS ( +0.0%)   P= 95.4 W   ED^2   +0.0%
	// VarF&AppIPC+Foxton*       49899 MIPS ( +2.3%)   P= 95.4 W   ED^2   -6.6%
	// VarF&AppIPC+LinOpt        51053 MIPS ( +4.7%)   P= 96.0 W   ED^2  -12.2%
	// VarF&AppIPC+SAnn          51164 MIPS ( +4.9%)   P= 96.0 W   ED^2  -12.8%
}
