package main

import "os"

// Example pins the report: it bins 30 dies by their slowest and fastest
// cores through the public API and the tick engine.
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// 30 dies sorted by shippable (slowest-core) frequency:
	// die     slow(GHz)  fast(GHz)   spread  leak min..max
	// 24           3.40       4.22      24%     1.5..3.8 W
	// 10           3.40       4.10      21%     1.7..3.6 W
	// 8            3.38       4.17      24%     1.3..3.5 W
	// 21           3.33       4.22      27%     1.5..4.3 W
	// 23           3.27       4.00      22%     1.6..3.8 W
	// 16           3.27       4.12      26%     1.5..4.1 W
	// 27           3.27       3.92      20%     1.7..2.8 W
	// 15           3.25       3.90      20%     1.4..3.4 W
	// 0            3.25       3.98      22%     1.4..3.3 W
	// 4            3.23       4.22      31%     1.6..3.9 W
	// 9            3.23       4.05      26%     1.3..3.3 W
	// 28           3.23       4.12      28%     1.6..4.2 W
	// 22           3.23       4.03      25%     1.3..2.8 W
	// 29           3.23       3.90      21%     1.4..3.1 W
	// 17           3.20       3.95      23%     1.3..3.4 W
	// 25           3.17       3.67      16%     1.3..2.6 W
	// 19           3.17       3.98      25%     1.4..3.6 W
	// 3            3.12       4.22      35%     1.8..3.8 W
	// 26           3.12       3.98      27%     1.5..2.7 W
	// 11           3.12       4.15      33%     1.2..4.7 W
	// 1            3.10       3.90      26%     1.2..3.8 W
	// 7            3.02       3.80      26%     1.5..3.6 W
	// 13           3.00       3.80      27%     1.3..3.0 W
	// 5            3.00       3.80      27%     1.4..2.3 W
	// 18           2.98       3.77      27%     1.1..2.7 W
	// 14           2.98       3.80      28%     1.1..2.7 W
	// 6            2.95       4.08      38%     1.5..3.0 W
	// 12           2.90       3.85      33%     1.2..3.1 W
	// 20           2.88       3.77      31%     1.1..3.4 W
	// 2            2.88       4.10      43%     1.2..4.1 W
	//
	// binning value: the best die ships 18% faster than the worst in a
	// UniFreq world; per-core frequency domains (NUniFreq) recover the
	// fast cores on every die — up to 43% headroom on the worst die alone.
}
