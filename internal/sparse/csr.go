// Package sparse implements the sparse-matrix substrate used throughout the
// FSAIE-Comm reproduction: CSR and COO storage, sparse matrix-vector products,
// transposition, pattern algebra (symbolic powers, thresholding, triangular
// extraction), and a Matrix Market style text codec.
//
// All matrices use 0-based indexing. Row indices within a CSR row are kept
// sorted by column, which the pattern-extension algorithms rely on.
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// CSR is a sparse matrix in compressed sparse row format.
//
// RowPtr has length Rows+1; the column indices of row i are
// ColIdx[RowPtr[i]:RowPtr[i+1]], sorted ascending, with matching values in
// Val. Duplicate column indices within a row are not allowed.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// NewCSR allocates an empty CSR matrix with the given shape and capacity.
func NewCSR(rows, cols, nnzCap int) *CSR {
	return &CSR{
		Rows:   rows,
		Cols:   cols,
		RowPtr: make([]int, rows+1),
		ColIdx: make([]int, 0, nnzCap),
		Val:    make([]float64, 0, nnzCap),
	}
}

// Row returns the column indices and values of row i as shared slices.
func (m *CSR) Row(i int) ([]int, []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return m.RowPtr[i+1] - m.RowPtr[i] }

// At returns the entry (i, j), or zero when it is not stored.
func (m *CSR) At(i, j int) float64 {
	cols, vals := m.Row(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
}

// Has reports whether entry (i, j) is stored (even if its value is zero).
func (m *CSR) Has(i, j int) bool {
	cols, _ := m.Row(i)
	k := sort.SearchInts(cols, j)
	return k < len(cols) && cols[k] == j
}

// Clone returns a deep copy of the matrix.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Val:    append([]float64(nil), m.Val...),
	}
	return c
}

// Validate checks the structural invariants of the CSR storage and returns a
// descriptive error for the first violation found.
func (m *CSR) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("sparse: negative shape %dx%d", m.Rows, m.Cols)
	}
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("sparse: ColIdx length %d != Val length %d", len(m.ColIdx), len(m.Val))
	}
	if m.RowPtr[m.Rows] != len(m.ColIdx) {
		return fmt.Errorf("sparse: RowPtr[last] = %d, want nnz %d", m.RowPtr[m.Rows], len(m.ColIdx))
	}
	// Check all of RowPtr before slicing ColIdx with it: non-decreasing with
	// RowPtr[0] = 0 and RowPtr[Rows] = nnz bounds every offset into [0, nnz],
	// so the Row calls below cannot go out of range even on corrupt input.
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr decreases at row %d", i)
		}
	}
	for i := 0; i < m.Rows; i++ {
		cols, _ := m.Row(i)
		for k, c := range cols {
			if c < 0 || c >= m.Cols {
				return fmt.Errorf("sparse: row %d has column %d out of range [0,%d)", i, c, m.Cols)
			}
			if k > 0 && cols[k-1] >= c {
				return fmt.Errorf("sparse: row %d columns not strictly ascending at position %d", i, k)
			}
		}
	}
	return nil
}

// MulVec computes y = A x. It panics when dimensions mismatch.
func (m *CSR) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVec shape mismatch: A is %dx%d, len(x)=%d, len(y)=%d",
			m.Rows, m.Cols, len(x), len(y)))
	}
	mulVecRows(m.RowPtr, m.ColIdx, m.Val, x, y, 0, m.Rows)
}

// Transpose returns Aᵀ as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int, m.Cols+1),
		ColIdx: make([]int, m.NNZ()),
		Val:    make([]float64, m.NNZ()),
	}
	// Count entries per column.
	for _, c := range m.ColIdx {
		t.RowPtr[c+1]++
	}
	for i := 0; i < m.Cols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := append([]int(nil), t.RowPtr[:m.Cols]...)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c := m.ColIdx[k]
			p := next[c]
			next[c]++
			t.ColIdx[p] = i
			t.Val[p] = m.Val[k]
		}
	}
	return t
}

// Diagonal returns a copy of the main diagonal (missing entries are zero).
func (m *CSR) Diagonal() []float64 {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// IsSymmetric reports whether the matrix is numerically symmetric within tol
// (relative to the larger of the two compared magnitudes). Rows must be
// sorted by column. One sweep, no transpose: rows are visited in order, so
// the entries (i,j) above the diagonal meet the entries of row j below its
// diagonal one after the other, in the order row j stores them.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	next := append([]int(nil), m.RowPtr[:m.Rows]...) // first entry of each row not yet met
	for i := 0; i < m.Rows; i++ {
		ca, va := m.Row(i)
		// Every entry below the diagonal must have been met by now.
		if p := next[i]; p < m.RowPtr[i+1] && m.ColIdx[p] < i {
			return false
		}
		for k, j := range ca {
			if j <= i {
				continue
			}
			p := next[j]
			if p == m.RowPtr[j+1] || m.ColIdx[p] != i {
				return false
			}
			next[j] = p + 1
			vb := m.Val[p]
			diff := math.Abs(va[k] - vb)
			scale := math.Max(math.Abs(va[k]), math.Abs(vb))
			if diff > tol*math.Max(scale, 1) {
				return false
			}
		}
	}
	return true
}

// LowerTriangle returns the lower-triangular part of A (including the
// diagonal) as a new CSR matrix.
func (m *CSR) LowerTriangle() *CSR {
	l := NewCSR(m.Rows, m.Cols, m.NNZ())
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			if c <= i {
				l.ColIdx = append(l.ColIdx, c)
				l.Val = append(l.Val, vals[k])
			}
		}
		l.RowPtr[i+1] = len(l.ColIdx)
	}
	return l
}

// Scale multiplies every stored value by s in place.
func (m *CSR) Scale(s float64) {
	for k := range m.Val {
		m.Val[k] *= s
	}
}

// IsFinite reports whether every stored value is finite (no NaN or ±Inf).
// A non-finite entry poisons every solve that touches the matrix — and any
// cache the matrix lands in — so input boundaries check this before
// accepting a matrix.
func (m *CSR) IsFinite() bool {
	for _, v := range m.Val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// MaxNorm returns the largest absolute stored value.
func (m *CSR) MaxNorm() float64 {
	max := 0.0
	for _, v := range m.Val {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Dense expands the matrix into a row-major dense [][]float64. Intended for
// tests on small matrices only.
func (m *CSR) Dense() [][]float64 {
	d := make([][]float64, m.Rows)
	for i := range d {
		d[i] = make([]float64, m.Cols)
		cols, vals := m.Row(i)
		for k, c := range cols {
			d[i][c] = vals[k]
		}
	}
	return d
}
