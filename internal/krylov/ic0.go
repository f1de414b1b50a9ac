package krylov

import (
	"errors"
	"fmt"
	"math"

	"fsaicomm/internal/sparse"
	"fsaicomm/internal/vecops"
)

// Classical baseline preconditioners beyond FSAI: zero-fill incomplete
// Cholesky (IC(0)) and its distributed block-Jacobi form, where each rank
// factors only its local diagonal block. Unlike FSAI, applying IC(0)
// requires triangular solves, which do not parallelize across unknowns —
// the reason the paper's line of work prefers approximate inverses. The
// block-Jacobi variant is embarrassingly parallel but degrades with rank
// count, which the ablation benches demonstrate.

// ErrBreakdownIC is wrapped when IC(0) hits a non-positive pivot.
var ErrBreakdownIC = errors.New("krylov: IC(0) breakdown (non-positive pivot)")

// IC0 is a zero-fill incomplete Cholesky preconditioner: L has exactly the
// lower-triangular pattern of A, and Apply performs z = L⁻ᵀ L⁻¹ r.
type IC0 struct {
	L *sparse.CSR // lower triangular with diagonal, row-sorted
	// LT is Lᵀ stored by rows for the backward solve.
	LT *sparse.CSR
}

// NewIC0 computes the IC(0) factorization of an SPD matrix. A small
// diagonal shift is retried automatically when the factorization breaks
// down (standard practice for matrices that are not H-matrices).
func NewIC0(a *sparse.CSR) (*IC0, error) {
	for _, shift := range []float64{0, 1e-8, 1e-4, 1e-2, 1e-1} {
		m := a
		if shift > 0 {
			m = a.Clone()
			for i := 0; i < m.Rows; i++ {
				cols, vals := m.Row(i)
				for k, c := range cols {
					if c == i {
						vals[k] *= 1 + shift
					}
				}
			}
		}
		l, err := ic0Factor(m)
		if err == nil {
			return &IC0{L: l, LT: l.Transpose()}, nil
		}
		if !errors.Is(err, ErrBreakdownIC) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("%w even with diagonal shifts", ErrBreakdownIC)
}

// ic0Factor computes L on the lower-triangular pattern of a.
func ic0Factor(a *sparse.CSR) (*sparse.CSR, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("krylov: IC(0) on non-square matrix")
	}
	l := a.LowerTriangle()
	n := l.Rows
	// Row-oriented up-looking IC(0): for each row i, for each k < i in the
	// row pattern, L[i][k] = (A[i][k] - sum_j L[i][j]*L[k][j]) / L[k][k],
	// then the diagonal pivot.
	for i := 0; i < n; i++ {
		cols, vals := l.Row(i)
		for kk, k := range cols {
			if k == i {
				// Diagonal: L[i][i] = sqrt(A[i][i] - sum L[i][j]^2).
				s := vals[kk]
				for jj := 0; jj < kk; jj++ {
					s -= vals[jj] * vals[jj]
				}
				if s <= 0 || math.IsNaN(s) {
					return nil, fmt.Errorf("%w at row %d (pivot %g)", ErrBreakdownIC, i, s)
				}
				vals[kk] = math.Sqrt(s)
				continue
			}
			// Off-diagonal within pattern.
			s := vals[kk]
			kcols, kvals := l.Row(k)
			// Merge the strictly-lower parts of rows i and k.
			a1, a2 := 0, 0
			for a1 < kk && a2 < len(kcols) && kcols[a2] < k {
				switch {
				case cols[a1] < kcols[a2]:
					a1++
				case cols[a1] > kcols[a2]:
					a2++
				default:
					s -= vals[a1] * kvals[a2]
					a1++
					a2++
				}
			}
			// Divide by L[k][k] (last entry of row k's lower part at column k).
			dkk := 0.0
			for a2 = len(kcols) - 1; a2 >= 0; a2-- {
				if kcols[a2] == k {
					dkk = kvals[a2]
					break
				}
			}
			if dkk == 0 {
				return nil, fmt.Errorf("%w: zero pivot at row %d", ErrBreakdownIC, k)
			}
			vals[kk] = s / dkk
		}
	}
	return l, nil
}

// Apply computes z = (L·Lᵀ)⁻¹ r via forward and backward substitution.
func (p *IC0) Apply(r, z []float64, fc *vecops.FlopCounter) {
	n := p.L.Rows
	copy(z, r)
	// Forward solve L y = r.
	for i := 0; i < n; i++ {
		cols, vals := p.L.Row(i)
		s := z[i]
		diag := 1.0
		for k, c := range cols {
			if c == i {
				diag = vals[k]
				break
			}
			s -= vals[k] * z[c]
		}
		z[i] = s / diag
	}
	// Backward solve Lᵀ x = y; LT rows are the columns of L.
	for i := n - 1; i >= 0; i-- {
		cols, vals := p.LT.Row(i)
		s := z[i]
		diag := 1.0
		for k := len(cols) - 1; k >= 0; k-- {
			c := cols[k]
			if c == i {
				diag = vals[k]
				break
			}
			s -= vals[k] * z[c]
		}
		z[i] = s / diag
	}
	fc.Add(4 * int64(p.L.NNZ()))
}

// NewBlockJacobiIC builds the distributed block-Jacobi preconditioner: each
// rank holds the IC(0) factorization of its local diagonal block
// A(lo:hi, lo:hi) of its rows (global columns) and applies it with no
// communication at all. The classical fully-parallel baseline the paper
// contrasts with ("Block-Jacobi" in §1).
func NewBlockJacobiIC(aRows *sparse.CSR, lo, hi int) (DistPreconditioner, error) {
	nl := hi - lo
	block := sparse.NewCSR(nl, nl, aRows.NNZ())
	for li := 0; li < nl; li++ {
		cols, vals := aRows.Row(li)
		for k, c := range cols {
			if c >= lo && c < hi {
				block.ColIdx = append(block.ColIdx, c-lo)
				block.Val = append(block.Val, vals[k])
			}
		}
		block.RowPtr[li+1] = len(block.ColIdx)
	}
	ic, err := NewIC0(block)
	if err != nil {
		return nil, fmt.Errorf("krylov: block-Jacobi local factor: %w", err)
	}
	return RankLocal(ic), nil
}
