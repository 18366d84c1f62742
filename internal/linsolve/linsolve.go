// Package linsolve provides the small dense linear-algebra kernel the
// thermal model needs: LU factorization with partial pivoting and
// triangular solves. Matrices are stored row-major in flat slices.
//
// The factorization runs dense, but the factor is kept as a sparse
// skeleton: the thermal conductance matrix couples only adjacent
// floorplan blocks, so most of L and U are exact zeros. Solves walk only
// the stored nonzeros, in the order the dense substitution would visit
// them, so for finite inputs they return the same bits as the dense
// loops while doing a fraction of the multiply-adds.
package linsolve

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when factorization meets a (numerically)
// singular matrix.
var ErrSingular = errors.New("linsolve: singular matrix")

// LU is a factorization P*A = L*U usable for repeated solves against the
// same matrix (the thermal model re-solves each leakage iteration).
//
// The factor is stored in compressed sparse rows: row i holds the nonzeros
// of L's strict lower part in ascending column order, then U's diagonal,
// then the nonzeros of U's strict upper part in ascending column order.
type LU struct {
	n    int
	perm []int
	// rowPtr[i]:rowPtr[i+1] spans row i of val/col; diag[i] indexes its
	// diagonal entry.
	rowPtr []int
	diag   []int
	col    []int
	val    []float64
	swaps  int
}

// Factor computes the LU factorization of the n x n matrix a (row-major).
// The input is not modified.
func Factor(a []float64, n int) (*LU, error) {
	return FactorInPlace(append([]float64(nil), a...), n)
}

// FactorInPlace is Factor using a as the elimination workspace, for
// callers that assembled the matrix only to factor it. The contents of a
// are overwritten; the returned LU does not retain it.
func FactorInPlace(a []float64, n int) (*LU, error) {
	if len(a) != n*n {
		return nil, fmt.Errorf("linsolve: matrix buffer has %d elements, want %d", len(a), n*n)
	}
	lu := a
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	swaps := 0
	for col := 0; col < n; col++ {
		// Partial pivoting: find the largest magnitude in this column.
		pivot := col
		maxAbs := math.Abs(lu[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu[r*n+col]); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if maxAbs == 0 {
			return nil, ErrSingular
		}
		if pivot != col {
			for c := 0; c < n; c++ {
				lu[col*n+c], lu[pivot*n+c] = lu[pivot*n+c], lu[col*n+c]
			}
			perm[col], perm[pivot] = perm[pivot], perm[col]
			swaps++
		}
		inv := 1 / lu[col*n+col]
		pivRow := lu[col*n+col+1 : (col+1)*n]
		for r := col + 1; r < n; r++ {
			rowR := lu[r*n : (r+1)*n : (r+1)*n]
			f := rowR[col] * inv
			rowR[col] = f
			if f == 0 {
				// Subtracting f*pv = ±0 leaves every finite entry's value
				// unchanged; only the sign of a zero could differ, and
				// zeros are not stored in the factor.
				continue
			}
			tail := rowR[col+1:]
			for k, pv := range pivRow {
				tail[k] -= f * pv
			}
		}
	}
	f := &LU{n: n, perm: perm, swaps: swaps}
	f.compress(lu)
	return f, nil
}

// compress stores the nonzeros of the dense factor lu as the sparse
// skeleton, sizing the arrays with a counting pass.
func (f *LU) compress(lu []float64) {
	n := f.n
	nnz := 0
	for i := 0; i < n; i++ {
		for j, v := range lu[i*n : (i+1)*n] {
			if v != 0 || j == i {
				nnz++
			}
		}
	}
	f.rowPtr = make([]int, n+1)
	f.diag = make([]int, n)
	f.col = make([]int, nnz)
	f.val = make([]float64, nnz)
	k := 0
	for i := 0; i < n; i++ {
		f.rowPtr[i] = k
		for j, v := range lu[i*n : (i+1)*n] {
			if j == i {
				f.diag[i] = k
			} else if v == 0 {
				continue
			}
			f.col[k] = j
			f.val[k] = v
			k++
		}
	}
	f.rowPtr[n] = k
}

// NNZ returns the number of stored nonzeros in L's strict lower part and
// in U including its diagonal. Together they count a solve's work:
// lower+upper-n multiply-subtracts and n divisions.
func (f *LU) NNZ() (lower, upper int) {
	for i := 0; i < f.n; i++ {
		lower += f.diag[i] - f.rowPtr[i]
	}
	return lower, len(f.val) - lower
}

// Swaps returns the number of row interchanges partial pivoting made.
func (f *LU) Swaps() int { return f.swaps }

// SolveInto solves A x = b into the caller-provided x, so repeated solves
// (the thermal fixed point, the transient stepper) can run without
// allocating. b is not modified. x must not alias b: forward substitution
// reads b under the row permutation after earlier entries of x are
// written.
func (f *LU) SolveInto(x, b []float64) error {
	if len(b) != f.n {
		return fmt.Errorf("linsolve: rhs has %d elements, want %d", len(b), f.n)
	}
	if len(x) != f.n {
		return fmt.Errorf("linsolve: solution buffer has %d elements, want %d", len(x), f.n)
	}
	n := f.n
	val, col, rowPtr, diag := f.val, f.col, f.rowPtr, f.diag[:n]
	// Apply permutation and forward-substitute L (unit diagonal).
	for i, d := range diag {
		s := b[f.perm[i]]
		lo := rowPtr[i]
		cols := col[lo:d]
		for k, v := range val[lo:d] {
			s -= v * x[cols[k]]
		}
		x[i] = s
	}
	// Back-substitute U.
	for i := n - 1; i >= 0; i-- {
		d, hi := diag[i], rowPtr[i+1]
		cols := col[d+1 : hi]
		s := x[i]
		for k, v := range val[d+1 : hi] {
			s -= v * x[cols[k]]
		}
		x[i] = s / val[d]
	}
	return nil
}

// Solve returns x with A x = b. b is not modified.
func (f *LU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.n)
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveDense is a convenience one-shot solve of A x = b.
func SolveDense(a []float64, n int, b []float64) ([]float64, error) {
	f, err := Factor(a, n)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// MatVec returns A x for an n x n row-major matrix.
func MatVec(a []float64, n int, x []float64) []float64 {
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		row := a[i*n : (i+1)*n]
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}
