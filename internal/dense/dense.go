// Package dense provides the small dense kernels the set-up needs: the
// Cholesky factorization of the per-row restrictions A(S_i, S_i) of an FSAI
// build, which are tiny (typically a few dozen unknowns), its triangular
// solves, and the QR least-squares solve of SPAI (qr.go). It replaces the
// MKL/OpenBLAS dependency of the paper's implementation.
//
// A factor L is a packed lower triangle, row r at r(r+1)/2. Row r depends
// only on the matrix's leading (r+1)×(r+1) block, so CholeskyPackedFrom can
// keep the rows a matrix with the same leading block left and compute the
// rest (prefix reuse, internal/fsai).
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

// CholeskyPackedFrom completes the Cholesky factor L·Lᵀ = A of an n×n SPD
// matrix in the packed l, with the inverse pivots 1/L_cc in inv[:n]. Rows
// [0,p) of l and inv[:p] must already be L's, left by an earlier call on a
// matrix with the same leading p×p block; rows [p,n) hold A's lower
// triangle. It goes column by column over rows ≥ p. Every entry is
// (a_rc − Σ_{k<c} L_rk·L_ck)·(1/L_cc) with k ascending and every pivot
// √(a_cc − Σ_{k<c} L_ck²), whatever p: the bits do not depend on it, and a
// non-positive pivot fails at the same column with the same value.
func CholeskyPackedFrom(l, inv []float64, p, n int) error {
	if p < 0 || p > n || len(l) < n*(n+1)/2 || len(inv) < n {
		return fmt.Errorf("dense: packed Cholesky of n=%d from row %d: buffers %d and %d too small", n, p, len(l), len(inv))
	}
	op := p * (p + 1) / 2 // where row p starts
	oc := 0               // where row c starts
	for c := 0; c < n; c++ {
		lc := l[oc : oc+c+1]
		// The rows to compute in column c: r on, starting at offset or.
		r, or, iv := c+1, oc+c+1, 0.0
		if c < p {
			r, or, iv = p, op, inv[c]
		} else {
			d := lc[c]
			for _, x := range lc[:c] {
				d -= x * x
			}
			if d <= 0 || math.IsNaN(d) {
				return fmt.Errorf("%w (pivot %d = %g)", ErrNotPositiveDefinite, c, d)
			}
			d = math.Sqrt(d)
			lc[c] = d
			iv = 1 / d
			inv[c] = iv
		}
		lc = lc[:c]
		// Four rows at a time, one accumulator each: their sums run over the
		// same k, so the loop has one trip count and no branch to mispredict.
		for ; r+4 <= n; r += 4 {
			o1, o2, o3 := or+r+1, or+2*r+3, or+3*r+6 // rows r+1, r+2, r+3
			r0, r1, r2, r3 := l[or:or+c+1], l[o1:o1+c+1], l[o2:o2+c+1], l[o3:o3+c+1]
			s0, s1, s2, s3 := r0[c], r1[c], r2[c], r3[c]
			h0, h1, h2, h3 := r0[:len(lc)], r1[:len(lc)], r2[:len(lc)], r3[:len(lc)]
			for k, x := range lc {
				s0 -= h0[k] * x // bce:inner
				s1 -= h1[k] * x // bce:inner
				s2 -= h2[k] * x // bce:inner
				s3 -= h3[k] * x // bce:inner
			}
			r0[c], r1[c], r2[c], r3[c] = s0*iv, s1*iv, s2*iv, s3*iv
			or = o3 + r + 4
		}
		for ; r < n; r++ {
			ri := l[or : or+c+1]
			s := ri[c]
			h := ri[:len(lc)]
			for k, x := range lc {
				s -= h[k] * x // bce:inner
			}
			ri[c] = s * iv
			or += r + 1
		}
		oc += c + 1
	}
	return nil
}

// SolvePackedLast solves L·Lᵀ·x = e_{n-1} into b on the factor in l: the
// system every FSAI row is. The forward sweep of e_{n-1} leaves
// e_{n-1}/L_{n-1,n-1} (+0 minus products with +0, over positive pivots),
// so only the back substitution runs.
func SolvePackedLast(l []float64, n int, b []float64) {
	clear(b[:n-1])
	b[n-1] = 1 / l[n*(n+1)/2-1]
	backSubstitute(l, n, b)
}

// backSubstitute solves Lᵀ·x = y in place on b, L packed in l.
func backSubstitute(l []float64, n int, b []float64) {
	d := n*(n+1)/2 - 1 // L_ii
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		o := d + i + 1 // L_{k,i} for k = i+1, i+2, …
		for k := i + 1; k < n; k++ {
			s -= l[o] * b[k]
			o += k + 1
		}
		b[i] = s / l[d]
		d -= i + 1
	}
}

// SolveSPD solves A x = b for a symmetric positive definite A (row-major
// n×n, only the lower triangle is read; A is not written) by Cholesky,
// forward and back substitution. On return b holds the solution.
func SolveSPD(a []float64, n int, b []float64) error {
	if len(a) < n*n || len(b) < n {
		return fmt.Errorf("dense: SolveSPD buffers %d and %d too small for n=%d", len(a), len(b), n)
	}
	l := make([]float64, 0, n*(n+1)/2)
	for i := 0; i < n; i++ {
		l = append(l, a[i*n:i*n+i+1]...)
	}
	if err := CholeskyPackedFrom(l, make([]float64, n), 0, n); err != nil {
		return err
	}
	o := 0
	for i := 0; i < n; i++ {
		ri := l[o : o+i+1]
		s := b[i]
		for k, x := range ri[:i] {
			s -= x * b[k]
		}
		b[i] = s / ri[i]
		o += i + 1
	}
	backSubstitute(l, n, b)
	return nil
}
