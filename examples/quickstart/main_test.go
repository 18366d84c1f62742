package main

import "os"

// Example pins the report: it characterises the default die and runs the
// 8-thread LinOpt scenario through the public API and the tick engine.
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// per-core characterisation (variation makes them differ):
	//   C1   Fmax 3.83 GHz   static 2.83 W
	//   C2   Fmax 3.73 GHz   static 2.61 W
	//   C3   Fmax 3.55 GHz   static 1.78 W
	//   C4   Fmax 3.48 GHz   static 1.91 W
	//   C5   Fmax 3.48 GHz   static 2.15 W
	//   C6   Fmax 3.40 GHz   static 2.50 W
	//   C7   Fmax 3.38 GHz   static 1.53 W
	//   C8   Fmax 3.45 GHz   static 1.58 W
	//   C9   Fmax 3.48 GHz   static 1.77 W
	//   C10  Fmax 3.45 GHz   static 2.24 W
	//   C11  Fmax 3.30 GHz   static 1.65 W
	//   C12  Fmax 3.15 GHz   static 1.43 W
	//   C13  Fmax 3.30 GHz   static 1.46 W
	//   C14  Fmax 3.45 GHz   static 1.95 W
	//   C15  Fmax 3.40 GHz   static 2.00 W
	//   C16  Fmax 3.30 GHz   static 1.61 W
	//   C17  Fmax 3.40 GHz   static 1.87 W
	//   C18  Fmax 3.52 GHz   static 2.41 W
	//   C19  Fmax 3.70 GHz   static 2.89 W
	//   C20  Fmax 3.85 GHz   static 3.42 W
	//
	// 8 threads for 200 ms under a 40 W budget with VarF&AppIPC+LinOpt:
	//   throughput           20461 MIPS (weighted 7.09)
	//   power                 40.1 W (dyn 19.1 + static 21.0)
	//   deviation from target  0.41%
	//   mean frequency        2.98 GHz, hottest block 83.7 C
	//   bzip2    ran     952 M instructions
	//   mcf      ran      64 M instructions
	//   vortex   ran     926 M instructions
	//   swim     ran     184 M instructions
	//   crafty   ran     824 M instructions
	//   art      ran     124 M instructions
	//   gap      ran     750 M instructions
	//   twolf    ran     268 M instructions
}
