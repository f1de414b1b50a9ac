// Package dense provides the small dense linear-algebra kernels the FSAI
// setup needs: the Cholesky factorization of symmetric positive definite
// matrices and the associated triangular solves. It replaces the
// MKL/OpenBLAS dependency of the paper's implementation; the systems it
// solves are the per-row restrictions A(S_i, S_i), which are tiny (typically
// a few dozen unknowns).
//
// Matrices are stored row-major in flat []float64 buffers of size n*n.
package dense

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when a factorization encounters a
// non-positive pivot. Principal submatrices of an SPD matrix are SPD, so for
// valid FSAI inputs this indicates a non-SPD system matrix.
var ErrNotPositiveDefinite = errors.New("dense: matrix is not positive definite")

// Cholesky overwrites the lower triangle of a (row-major n×n, symmetric
// positive definite; only the lower triangle is read) with its Cholesky
// factor L such that L·Lᵀ equals the input. The strict upper triangle is
// left untouched.
func Cholesky(a []float64, n int) error {
	if len(a) < n*n {
		return fmt.Errorf("dense: Cholesky buffer %d too small for n=%d", len(a), n)
	}
	for j := 0; j < n; j++ {
		rj := a[j*n : j*n+j+1] // row j up to its diagonal
		d := rj[j]
		for _, x := range rj[:j] {
			d -= x * x
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w (pivot %d = %g)", ErrNotPositiveDefinite, j, d)
		}
		d = math.Sqrt(d)
		rj[j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			ri := a[i*n : i*n+j+1]
			s := ri[j]
			for k, x := range rj[:j] {
				s -= ri[k] * x
			}
			ri[j] = s * inv
		}
	}
	return nil
}

// backSubstitute solves Lᵀ x = y in place on b, L in the lower triangle of a.
func backSubstitute(a []float64, n int, b []float64) {
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= a[k*n+i] * b[k]
		}
		b[i] = s / a[i*n+i]
	}
}

// SolveSPD solves A x = b for a symmetric positive definite A (row-major,
// only the lower triangle is read) by Cholesky, forward and back
// substitution. A and b are overwritten; on return b holds the solution.
func SolveSPD(a []float64, n int, b []float64) error {
	if err := Cholesky(a, n); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		ri := a[i*n : i*n+i+1]
		s := b[i]
		for k, x := range ri[:i] {
			s -= x * b[k]
		}
		b[i] = s / ri[i]
	}
	backSubstitute(a, n, b)
	return nil
}

// SolveSPDLast solves A x = e_{n-1}, the last unit vector, for a symmetric
// positive definite A (row-major, only the lower triangle is read) — the
// system every FSAI row is. A and b are overwritten; on return b holds the
// solution, whatever it held before. The bits are those of SolveSPD on
// b = e_{n-1}: the forward sweep L y = e_{n-1} subtracts products with +0
// from +0 and divides +0 by positive pivots until the last row, so for the
// finite L a successful Cholesky leaves it is y = e_{n-1}/L_{n-1,n-1} and
// is not run.
func SolveSPDLast(a []float64, n int, b []float64) error {
	if err := Cholesky(a, n); err != nil {
		return err
	}
	clear(b[:n-1])
	b[n-1] = 1 / a[(n-1)*n+n-1]
	backSubstitute(a, n, b)
	return nil
}
