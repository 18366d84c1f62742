package power

import (
	"testing"

	"vasched/internal/floorplan"
	"vasched/internal/tech"
	"vasched/internal/varmodel"
)

func testMaps(t *testing.T, sigmaOverMu float64) *varmodel.DieMaps {
	t.Helper()
	cfg := varmodel.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 64, 64
	cfg.VthSigmaOverMu = sigmaOverMu
	g, err := varmodel.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maps, err := g.Die(42, 0)
	if err != nil {
		t.Fatal(err)
	}
	return maps
}

func TestDefaultModelValid(t *testing.T) {
	if err := DefaultModel(tech.Default()).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadModels(t *testing.T) {
	mut := []func(*Model){
		func(m *Model) { m.CoreStaticNomW = 0 },
		func(m *Model) { m.L2StaticNomW = -1 },
		func(m *Model) { m.ClockFrac = 1.5 },
		func(m *Model) { m.SRAMLeakWeight = 0 },
	}
	for i, f := range mut {
		m := DefaultModel(tech.Default())
		f(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestNominalCoreStaticMatchesCalibration(t *testing.T) {
	// With zero variation at the reference point, core static power must
	// equal the calibration constant exactly (uplift is 1, factor is 1).
	maps := testMaps(t, 0)
	fp := floorplan.New20CoreCMP()
	m := DefaultModel(maps.Cfg.Tech)
	got := m.CoreStaticW(maps, fp, 0, m.Tech.VddNominal, m.Tech.TRefC)
	if diff := got - m.CoreStaticNomW; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("nominal core static = %v, want %v", got, m.CoreStaticNomW)
	}
	l2 := m.L2StaticW(maps, fp, m.Tech.TRefC)
	if diff := l2 - m.L2StaticNomW; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("nominal L2 static = %v, want %v", l2, m.L2StaticNomW)
	}
}

func TestVariationIncreasesTotalLeakage(t *testing.T) {
	// Paper Section 3: low-Vth cores gain more than high-Vth cores save,
	// so the die-wide static power rises with variation.
	fp := floorplan.New20CoreCMP()
	total := func(maps *varmodel.DieMaps) float64 {
		m := DefaultModel(maps.Cfg.Tech)
		sum := m.L2StaticW(maps, fp, 80)
		for c := 0; c < fp.NumCores; c++ {
			sum += m.CoreStaticW(maps, fp, c, 1.0, 80)
		}
		return sum
	}
	withVar := total(testMaps(t, 0.12))
	without := total(testMaps(t, 0))
	if withVar <= without {
		t.Fatalf("variation did not increase leakage: %v <= %v", withVar, without)
	}
}

func TestCoreToCoreStaticSpread(t *testing.T) {
	maps := testMaps(t, 0.12)
	fp := floorplan.New20CoreCMP()
	m := DefaultModel(maps.Cfg.Tech)
	lo, hi := 1e18, 0.0
	for c := 0; c < fp.NumCores; c++ {
		p := m.CoreStaticW(maps, fp, c, 1.0, 80)
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	if hi/lo < 1.2 {
		t.Fatalf("static spread %v too small for sigma/mu=0.12", hi/lo)
	}
}

func TestStaticScalesWithVoltageAndTemp(t *testing.T) {
	maps := testMaps(t, 0.12)
	fp := floorplan.New20CoreCMP()
	m := DefaultModel(maps.Cfg.Tech)
	base := m.CoreStaticW(maps, fp, 0, 0.8, 70)
	if m.CoreStaticW(maps, fp, 0, 1.0, 70) <= base {
		t.Fatal("static should rise with supply")
	}
	if m.CoreStaticW(maps, fp, 0, 0.8, 95) <= base {
		t.Fatal("static should rise with temperature")
	}
}

func TestDynamicCoreW(t *testing.T) {
	m := DefaultModel(tech.Default())
	// At the calibration point with nominal IPC, dynamic power equals the
	// Table 5 number.
	got := m.DynamicCoreW(3.7, 1.1, 1.0, 4e9, 1.1)
	if d := got - 3.7; d > 1e-12 || d < -1e-12 {
		t.Fatalf("calibration-point dynamic = %v, want 3.7", got)
	}
	// Quadratic in V, linear in f.
	halfF := m.DynamicCoreW(3.7, 1.1, 1.0, 2e9, 1.1)
	if d := halfF - 3.7/2; d > 1e-12 || d < -1e-12 {
		t.Fatalf("half-frequency dynamic = %v", halfF)
	}
	lowV := m.DynamicCoreW(3.7, 1.1, 0.5, 4e9, 1.1)
	if d := lowV - 3.7/4; d > 1e-12 || d < -1e-12 {
		t.Fatalf("half-voltage dynamic = %v", lowV)
	}
	// Stalled pipeline: only the clock fraction remains.
	stalled := m.DynamicCoreW(3.7, 1.1, 1.0, 4e9, 0)
	if d := stalled - 3.7*m.ClockFrac; d > 1e-12 || d < -1e-12 {
		t.Fatalf("stalled dynamic = %v", stalled)
	}
	// Degenerate inputs.
	if m.DynamicCoreW(0, 1, 1, 4e9, 1) != 0 || m.DynamicCoreW(3, 1, 1, 0, 1) != 0 {
		t.Fatal("degenerate dynamic power should be 0")
	}
}

func TestL2DynamicW(t *testing.T) {
	m := DefaultModel(tech.Default())
	if m.L2DynamicW(-5) != 0 {
		t.Fatal("negative access rate should clamp to 0")
	}
	if got := m.L2DynamicW(1e9); got != m.L2DynPerAccessJ*1e9 {
		t.Fatalf("L2 dynamic = %v", got)
	}
}

func TestFastRegionsLeakMore(t *testing.T) {
	// The Vth-Leff roll-off coupling: a block with shorter-than-nominal
	// gates must leak more than the same block with nominal gates.
	maps := testMaps(t, 0.12)
	fp := floorplan.New20CoreCMP()
	m := DefaultModel(maps.Cfg.Tech)
	b := fp.CoreBlocks(0)[0]
	withCoupling := m.BlockStaticW(maps, fp, b, 1.0, 80)
	// Same model with the coupling disabled.
	m2 := m
	m2.Tech.VthRollOff = 0
	without := m2.BlockStaticW(maps, fp, b, 1.0, 80)
	leffMean := maps.LeffMeanOverRect(b.R.X0, b.R.Y0, b.R.X1, b.R.Y1)
	if leffMean < maps.Cfg.Tech.LeffNominal && withCoupling <= without {
		t.Fatal("short-channel block should leak more with coupling enabled")
	}
	if leffMean > maps.Cfg.Tech.LeffNominal && withCoupling >= without {
		t.Fatal("long-channel block should leak less with coupling enabled")
	}
}

func TestCachedLeakageMatchesDirect(t *testing.T) {
	// The leakage kernel over the cached (vthEff, refW) pair must be
	// algebraically identical to BlockStaticW for every block, voltage,
	// and temperature.
	maps := testMaps(t, 0.12)
	fp := floorplan.New20CoreCMP()
	m := DefaultModel(maps.Cfg.Tech)
	k := m.Tech.LeakageKernel(maps.VthSigmaRan)
	for _, b := range fp.Blocks[:20] {
		vthEff, refW := m.BlockVthEff(maps, fp, b)
		if refW <= 0 {
			t.Fatalf("block %s nominal share %v", b.Name, refW)
		}
		for _, v := range []float64{0.6, 0.8, 1.0} {
			for _, tc := range []float64{55.0, 80.0, 100.0} {
				direct := m.BlockStaticW(maps, fp, b, v, tc)
				cached := k.Static(refW, vthEff, v, tc)
				if d := direct - cached; d > 1e-12 || d < -1e-12 {
					t.Fatalf("block %s at (%v V, %v C): direct %v != cached %v",
						b.Name, v, tc, direct, cached)
				}
			}
		}
	}
}

func TestBlockSharesSumToBudgets(t *testing.T) {
	// The per-block nominal shares must partition the core and L2 budgets.
	maps := testMaps(t, 0.12)
	fp := floorplan.New20CoreCMP()
	m := DefaultModel(maps.Cfg.Tech)
	var l2 float64
	perCore := make([]float64, fp.NumCores)
	for _, b := range fp.Blocks {
		_, refW := m.BlockVthEff(maps, fp, b)
		if b.Kind == floorplan.UnitL2 {
			l2 += refW
		} else {
			perCore[b.Core] += refW
		}
	}
	if d := l2 - m.L2StaticNomW; d > 1e-9 || d < -1e-9 {
		t.Fatalf("L2 shares sum to %v, want %v", l2, m.L2StaticNomW)
	}
	for core, sum := range perCore {
		if d := sum - m.CoreStaticNomW; d > 1e-9 || d < -1e-9 {
			t.Fatalf("core %d shares sum to %v, want %v", core, sum, m.CoreStaticNomW)
		}
	}
}
