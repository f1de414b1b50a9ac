package sparse

// The portable body of the k-wide product, for the tests that hold it and the
// platform's body (the assembly on amd64) to the same reference.

func (m *CSR) MulMatColsPortable(x, y []float64, k int, cols []int) {
	mulMatRowsGo(m.RowPtr, m.ColIdx, m.Val, x, y, k, cols, 0, m.Rows)
}

func (m *CSR32) MulMatColsPortable(x, y []float64, k int, cols []int) {
	mulMatRowsGo(m.RowPtr, m.ColIdx, m.Val, x, y, k, cols, 0, m.Rows)
}

// MulVec is the float32 matrix's plain product, which the operators take
// through MulVecDot: the tests hold it to the float64 one and to the
// indexed loops.
func (m *CSR32) MulVec(x, y []float64) { m.MulVecDot(nil, x, y, nil) }

// MulVecRuns is MulVecDot without the dot, on both value types.
func (m *CSR) MulVecRuns(r *RunIndex, x, y []float64) { m.MulVecDot(r, x, y, nil) }

func (m *CSR32) MulVecRuns(r *RunIndex, x, y []float64) { m.MulVecDot(r, x, y, nil) }

// MulVecRowsPortable runs the portable 1-wide body over the entries on rows
// [lo, hi): the reference the entry walk's refusals are held to.
func MulVecRowsPortable[V Value](rowPtr, colIdx []int, val []V, x, y []float64, lo, hi int) {
	mulVecRows(rowPtr, colIdx, val, x, y, lo, hi)
}

// ParseMatrixMarket is ReadMatrixMarket on a whole body with its entry lines
// cut into the given number of chunks, whatever the body's size.
func ParseMatrixMarket(data []byte, chunks int) (*CSR, error) { return parseMatrixMarket(data, chunks) }

// AllRuns is the run index of a pattern whatever its runs save, so that the
// tests reach the run product on every pattern they draw.
func AllRuns(rowPtr, colIdx []int) *RunIndex {
	return buildRuns(rowPtr, colIdx, countRuns(rowPtr, colIdx))
}

// Lists returns the index's row pointers and (start, length) pairs.
func (r *RunIndex) Lists() (ptr, runs []int) { return r.ptr, r.runs }
