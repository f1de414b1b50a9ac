package sparse

import "fmt"

// CSR32 is a CSR matrix whose values are stored in float32 — the
// mixed-precision representation of the FSAI factors (and optionally the
// operator). The structure (RowPtr, ColIdx) is shared with the float64
// matrix it was narrowed from: only the value array is duplicated, at half
// the bytes. Products accumulate in float64, so the only precision lost is
// the one rounding of each stored value; iterative refinement recovers the
// rest.
type CSR32 struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float32
}

// NewCSR32 narrows a float64 CSR matrix to float32 storage. RowPtr and
// ColIdx are shared with m (read-only by convention); Val is the rounded
// copy. Values outside the float32 range overflow to ±Inf — callers feeding
// matrices with entries beyond ~3.4e38 must rescale first, as any f32
// pipeline would.
func NewCSR32(m *CSR) *CSR32 {
	v := make([]float32, len(m.Val))
	for i, x := range m.Val {
		v[i] = float32(x)
	}
	return &CSR32{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: v}
}

// Row returns the column indices and values of row i as shared slices.
func (m *CSR32) Row(i int) ([]int, []float32) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// MulVec computes y = A x with float64 accumulation. It panics when
// dimensions mismatch.
func (m *CSR32) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("sparse: CSR32 MulVec shape mismatch: A is %dx%d, len(x)=%d, len(y)=%d",
			m.Rows, m.Cols, len(x), len(y)))
	}
	mulVecRows(m.RowPtr, m.ColIdx, m.Val, x, y, 0, m.Rows)
}

// MulMatCols computes the selected interleaved columns of Y = A·X for k
// columns stored row-major (x[i*k+c] = component i of column c), with
// float64 accumulation. cols selects the active columns (nil = all),
// matching CSR.MulMatCols.
func (m *CSR32) MulMatCols(x, y []float64, k int, cols []int) {
	if len(x) != m.Cols*k || len(y) != m.Rows*k {
		panic(fmt.Sprintf("sparse: CSR32 MulMatCols shape mismatch: A is %dx%d, k=%d, len(x)=%d, len(y)=%d",
			m.Rows, m.Cols, k, len(x), len(y)))
	}
	mulMatRows(m.RowPtr, m.ColIdx, m.Val, x, y, k, cols, 0, m.Rows)
}
