package delay

import (
	"math"
	"testing"

	"vasched/internal/floorplan"
	"vasched/internal/stats"
	"vasched/internal/tech"
	"vasched/internal/varmodel"
)

func buildTestCore(t testing.TB, sigmaOverMu float64, core int, seed int64) *CorePaths {
	t.Helper()
	cfg := varmodel.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 64, 64
	cfg.VthSigmaOverMu = sigmaOverMu
	g, err := varmodel.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maps, err := g.Die(seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	fp := floorplan.New20CoreCMP()
	cp, err := BuildCore(maps, fp, core, stats.NewRNG(seed), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestNominalCoreNearNominalFrequency(t *testing.T) {
	// With zero variation every path is nominal, so Fmax at the rating
	// point should equal the nominal frequency (up to PLL quantisation).
	cp := buildTestCore(t, 0, 0, 1)
	f := cp.FmaxHz(1.0, 95)
	if math.Abs(f-4e9) > 25e6 {
		t.Fatalf("zero-variation Fmax = %v, want ~4 GHz", f)
	}
}

func TestVariationSlowsCores(t *testing.T) {
	// With variation, the worst path is slower than nominal, so cores are
	// slower than the 4 GHz nominal (paper Section 3).
	cp := buildTestCore(t, 0.12, 3, 2)
	f := cp.FmaxHz(1.0, 95)
	if f >= 4e9 {
		t.Fatalf("variation-affected Fmax = %v, want < 4 GHz", f)
	}
	if f < 2e9 {
		t.Fatalf("variation-affected Fmax = %v, implausibly slow", f)
	}
}

func TestFmaxMonotoneInVoltage(t *testing.T) {
	cp := buildTestCore(t, 0.12, 5, 3)
	prev := 0.0
	for _, v := range []float64{0.6, 0.7, 0.8, 0.9, 1.0} {
		f := cp.FmaxHz(v, 95)
		if f < prev {
			t.Fatalf("Fmax not monotone at %vV: %v < %v", v, f, prev)
		}
		prev = f
	}
}

func TestFmaxDropsWithTemperature(t *testing.T) {
	cp := buildTestCore(t, 0.12, 7, 4)
	if cp.FmaxHz(1.0, 95) > cp.FmaxHz(1.0, 60) {
		t.Fatal("hotter core should not be faster")
	}
}

func TestVFTableShape(t *testing.T) {
	cp := buildTestCore(t, 0.12, 0, 5)
	levels := []float64{0.6, 0.7, 0.8, 0.9, 1.0}
	table := cp.VFTable(levels, 95)
	if len(table) == 0 {
		t.Fatal("empty VF table")
	}
	for i := 1; i < len(table); i++ {
		if table[i].V <= table[i-1].V || table[i].F < table[i-1].F {
			t.Fatalf("VF table not monotone: %+v", table)
		}
	}
	// Frequencies quantised to the PLL grid.
	for _, vf := range table {
		if math.Mod(vf.F, DefaultConfig().FStepHz) > 1 {
			t.Fatalf("frequency %v not on PLL grid", vf.F)
		}
	}
}

func TestBuildCoreValidation(t *testing.T) {
	cfg := varmodel.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 64, 64
	g, err := varmodel.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maps, err := g.Die(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fp := floorplan.New20CoreCMP()
	if _, err := BuildCore(maps, fp, -1, stats.NewRNG(1), DefaultConfig()); err == nil {
		t.Fatal("negative core accepted")
	}
	if _, err := BuildCore(maps, fp, 20, stats.NewRNG(1), DefaultConfig()); err == nil {
		t.Fatal("out-of-range core accepted")
	}
	bad := DefaultConfig()
	bad.PathsPerUnit = 0
	if _, err := BuildCore(maps, fp, 0, stats.NewRNG(1), bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestCoreToCoreSpread(t *testing.T) {
	// Across a die at sigma/mu = 0.12, cores should differ in frequency by
	// a paper-plausible margin (Figure 4(b): mostly 20-50%).
	cfg := varmodel.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 128, 128
	g, err := varmodel.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp := floorplan.New20CoreCMP()
	var ratios []float64
	for die := 0; die < 5; die++ {
		maps, err := g.Die(10, die)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(int64(die))
		var fs []float64
		for core := 0; core < fp.NumCores; core++ {
			cp, err := BuildCore(maps, fp, core, rng.Derive(int64(core)), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			fs = append(fs, cp.FmaxHz(1.0, 95))
		}
		ratios = append(ratios, stats.Max(fs)/stats.Min(fs))
	}
	mean := stats.Mean(ratios)
	if mean < 1.10 || mean > 1.60 {
		t.Fatalf("mean core-to-core frequency ratio = %v, outside plausible band", mean)
	}
}

func TestHigherSigmaWidensSpread(t *testing.T) {
	// Figure 5(b): spread grows with sigma/mu.
	spread := func(sm float64) float64 {
		cfg := varmodel.DefaultConfig()
		cfg.GridRows, cfg.GridCols = 64, 64
		cfg.VthSigmaOverMu = sm
		g, err := varmodel.NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fp := floorplan.New20CoreCMP()
		var ratios []float64
		for die := 0; die < 4; die++ {
			maps, err := g.Die(20, die)
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(int64(die))
			var fs []float64
			for core := 0; core < fp.NumCores; core++ {
				cp, err := BuildCore(maps, fp, core, rng.Derive(int64(core)), DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				fs = append(fs, cp.FmaxHz(1.0, 95))
			}
			ratios = append(ratios, stats.Max(fs)/stats.Min(fs))
		}
		return stats.Mean(ratios)
	}
	if spread(0.12) <= spread(0.03) {
		t.Fatal("frequency spread should grow with sigma/mu")
	}
}

func TestWorstDelayInfeasibleLowVoltage(t *testing.T) {
	cp := buildTestCore(t, 0.12, 0, 6)
	// At a supply barely above threshold, Fmax must come back 0 rather
	// than something tiny-but-positive built from an Inf delay.
	if f := cp.FmaxHz(0.27, 95); f != 0 {
		t.Fatalf("near-threshold Fmax = %v, want 0", f)
	}
}

// refFmax is the reference frequency model: the worst AlphaPowerDelay over
// the core's paths with thresholds shifted by dVth, quantised to the PLL
// grid.
func refFmax(cp *CorePaths, dVth, v, tempC float64) float64 {
	worst := 0.0
	for _, p := range cp.paths {
		if d := cp.tech.AlphaPowerDelay(p.vth+dVth, p.leff, v, tempC); d > worst {
			worst = d
		}
	}
	if math.IsInf(worst, 1) || worst <= 0 {
		return 0
	}
	return math.Floor(cp.tech.FNominalHz/worst/cp.cfg.FStepHz) * cp.cfg.FStepHz
}

// TestFmaxBitIdenticalToReference checks VFTable, FmaxHz and
// FmaxWithVthShift bit for bit against refFmax for every core of a
// 128x128 die.
func TestFmaxBitIdenticalToReference(t *testing.T) {
	cfg := varmodel.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 128, 128
	g, err := varmodel.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maps, err := g.Die(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fp := floorplan.New20CoreCMP()
	p := tech.Default()
	rng := stats.NewRNG(maps.Seed).Derive(101)
	for core := 0; core < fp.NumCores; core++ {
		cp, err := BuildCore(maps, fp, core, rng.Derive(int64(core)), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var want []VF
		for _, v := range p.VoltageLevels() {
			if f := refFmax(cp, 0, v, p.TRatingC); f > 0 {
				want = append(want, VF{V: v, F: f})
			}
		}
		got := cp.VFTable(p.VoltageLevels(), p.TRatingC)
		if len(got) != len(want) {
			t.Fatalf("core %d: VFTable has %d entries, reference %d", core, len(got), len(want))
		}
		for i := range want {
			if got[i].V != want[i].V || math.Float64bits(got[i].F) != math.Float64bits(want[i].F) {
				t.Fatalf("core %d entry %d: %+v, reference %+v", core, i, got[i], want[i])
			}
		}
		for _, tc := range []float64{p.TRefC, 80, p.TRatingC} {
			for _, v := range []float64{0.3, 0.6, 0.85, 1.0} {
				if got, want := cp.FmaxHz(v, tc), refFmax(cp, 0, v, tc); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("core %d FmaxHz(%v, %v) = %v, reference %v", core, v, tc, got, want)
				}
				for _, dv := range []float64{-0.04, -0.01, 0.02, 0.05} {
					got, want := cp.FmaxWithVthShift(dv, v, tc), refFmax(cp, dv, v, tc)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("core %d FmaxWithVthShift(%v, %v, %v) = %v, reference %v", core, dv, v, tc, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkVFTable is one core's manufacturer table: the worst-path delay
// kernel over the voltage ladder at the rating temperature, the loop that
// dominates chip.Build.
func BenchmarkVFTable(b *testing.B) {
	cp := buildTestCore(b, 0.12, 0, 5)
	p := tech.Default()
	levels := p.VoltageLevels()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(cp.VFTable(levels, p.TRatingC)) == 0 {
			b.Fatal("empty VF table")
		}
	}
}
