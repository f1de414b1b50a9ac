package sparse

// The portable body of the k-wide product, for the tests that hold it and the
// platform's body (the assembly on amd64) to the same reference.

func (m *CSR) MulMatColsPortable(x, y []float64, k int, cols []int) {
	mulMatRowsGo(m.RowPtr, m.ColIdx, m.Val, x, y, k, cols, 0, m.Rows)
}

func (m *CSR32) MulMatColsPortable(x, y []float64, k int, cols []int) {
	mulMatRowsGo(m.RowPtr, m.ColIdx, m.Val, x, y, k, cols, 0, m.Rows)
}

// AllRuns is the run index of a pattern whatever its runs save, so that the
// tests reach the run product on every pattern they draw.
func AllRuns(rowPtr, colIdx []int) *RunIndex {
	return buildRuns(rowPtr, colIdx, countRuns(rowPtr, colIdx))
}

// Lists returns the index's row pointers and (start, length) pairs.
func (r *RunIndex) Lists() (ptr, runs []int) { return r.ptr, r.runs }
