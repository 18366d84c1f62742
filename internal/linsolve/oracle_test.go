package linsolve_test

import (
	"math"
	"math/rand"
	"testing"

	"vasched/internal/floorplan"
	"vasched/internal/linsolve"
	"vasched/internal/thermal"
)

// denseLU is the dense factorization with partial pivoting and its
// substitution loops, kept as the oracle the sparse-skeleton solve must
// reproduce bit for bit.
type denseLU struct {
	n    int
	lu   []float64
	perm []int
}

func denseFactor(a []float64, n int) *denseLU {
	lu := append([]float64(nil), a...)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		pivot := col
		maxAbs := math.Abs(lu[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu[r*n+col]); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if pivot != col {
			for c := 0; c < n; c++ {
				lu[col*n+c], lu[pivot*n+c] = lu[pivot*n+c], lu[col*n+c]
			}
			perm[col], perm[pivot] = perm[pivot], perm[col]
		}
		inv := 1 / lu[col*n+col]
		for r := col + 1; r < n; r++ {
			f := lu[r*n+col] * inv
			lu[r*n+col] = f
			for c := col + 1; c < n; c++ {
				lu[r*n+c] -= f * lu[col*n+c]
			}
		}
	}
	return &denseLU{n: n, lu: lu, perm: perm}
}

func (f *denseLU) solve(b []float64) []float64 {
	n := f.n
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[f.perm[i]]
		for j := 0; j < i; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s / f.lu[i*n+i]
	}
	return x
}

// checkBitIdentical factors a both ways and compares the solutions of
// trials random right-hand sides bit for bit.
func checkBitIdentical(t *testing.T, name string, a []float64, n int, r *rand.Rand, trials int) *linsolve.LU {
	t.Helper()
	sparse, err := linsolve.Factor(a, n)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	oracle := denseFactor(a, n)
	x := make([]float64, n)
	b := make([]float64, n)
	for trial := 0; trial < trials; trial++ {
		for i := range b {
			b[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3))
		}
		if err := sparse.SolveInto(x, b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := oracle.solve(b)
		for i := range want {
			if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s trial %d: x[%d] = %v (%#x), dense oracle %v (%#x)",
					name, trial, i, x[i], math.Float64bits(x[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	return sparse
}

func TestSolveMatchesDenseOracleSteadyState(t *testing.T) {
	fp := floorplan.New20CoreCMP()
	a := thermal.SystemMatrix(fp, thermal.DefaultConfig(), 0)
	checkBitIdentical(t, "steady-state", a, len(fp.Blocks), rand.New(rand.NewSource(1)), 200)
}

func TestSolveMatchesDenseOracleTransient(t *testing.T) {
	fp := floorplan.New20CoreCMP()
	r := rand.New(rand.NewSource(2))
	for _, dtMS := range []float64{0.1, 0.5, 1, 2, 10, 100} {
		a := thermal.SystemMatrix(fp, thermal.DefaultConfig(), dtMS)
		checkBitIdentical(t, "transient", a, len(fp.Blocks), r, 50)
	}
}

// TestSolveMatchesDenseOraclePivoting covers a general sparse matrix on
// which partial pivoting interchanges rows.
func TestSolveMatchesDenseOraclePivoting(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n = 60
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = r.NormFloat64() * 0.01
		for k := 0; k < 4; k++ {
			a[i*n+r.Intn(n)] = r.NormFloat64()
		}
	}
	f := checkBitIdentical(t, "pivoting", a, n, r, 200)
	if f.Swaps() == 0 {
		t.Fatal("test matrix made no pivot swaps; it no longer covers the permuted path")
	}
}

// TestThermalFactorNNZ pins the work of one steady-state solve on the
// 20-core floorplan: the stored nonzeros of the factor are the
// multiply-adds per solve. A floorplan or block reordering that inflates
// fill-in, or that makes pivoting swap rows, fails here.
func TestThermalFactorNNZ(t *testing.T) {
	fp := floorplan.New20CoreCMP()
	n := len(fp.Blocks)
	f, err := linsolve.FactorInPlace(thermal.SystemMatrix(fp, thermal.DefaultConfig(), 0), n)
	if err != nil {
		t.Fatal(err)
	}
	lower, upper := f.NNZ()
	if lower != 1097 || upper != 1221 {
		t.Fatalf("factor nonzeros: %d strictly lower, %d upper with diagonal; want 1097 and 1221 (dense: %d and %d)",
			lower, upper, n*(n-1)/2, n*(n+1)/2)
	}
	if s := f.Swaps(); s != 0 {
		t.Fatalf("pivoting made %d row swaps on the conductance matrix, want 0", s)
	}
}
