package sparse

// Sparse matrix times a block of vectors (SpMM). The k right-hand vectors
// are stored row-major interleaved — X[i*k+c] is component i of vector c —
// so every stored matrix entry touches k contiguous values of X, and one
// pass over the matrix in memory serves all k vectors (the bandwidth-locality
// argument behind the batched multi-RHS solve path; the kernel walks each
// block of rows once per column pair, from cache — rowkernel_amd64.s with the
// pair in one XMM register, rowkernel.go's portable body elsewhere). Given
// the pattern's run index (runs.go), MulMatCols walks the runs instead of
// the entries: one start and one length per run of consecutive columns, the
// x lanes of the next entry 8k bytes on. Each column's row sum accumulates
// in MulVec's left-to-right entry order either way, so column c of MulMat is
// bit-identical to MulVec on column c alone — the property the batched
// solver's differential tests pin. A nil mask means every column and builds
// no list, at any width.

import "fmt"

// MulMat computes Y = A·X for k interleaved vectors: len(x) = Cols·k,
// len(y) = Rows·k, both row-major (x[i*k+c]). Column c of the result is
// bit-identical to MulVec on the de-interleaved column c.
func (m *CSR) MulMat(x, y []float64, k int) { m.MulMatCols(nil, x, y, k, nil) }

// MulMatCols computes the listed columns of Y = A·X, leaving the other
// columns of y untouched. cols holds strictly ascending column indices in
// [0, k). This is the convergence-masking kernel of the batched CG loop:
// columns that have converged stop costing flops while the survivors keep
// their exact scalar-solve arithmetic. A nil cols computes every column. r
// is the run index of m's pattern, whose runs the product then walks; nil
// walks the entries — the same bits.
func (m *CSR) MulMatCols(r *RunIndex, x, y []float64, k int, cols []int) {
	checkMulMat(m.Rows, m.Cols, x, y, k, "MulMatCols")
	mulMatRows(r, m.RowPtr, m.ColIdx, m.Val, x, y, k, cols, 0, m.Rows)
}

// MulMatCols computes the selected interleaved columns of Y = A·X for k
// columns stored row-major (x[i*k+c] = component i of column c), with
// float64 accumulation. cols selects the active columns (nil = all), and r
// the walk (nil: the entries), matching CSR.MulMatCols.
func (m *CSR32) MulMatCols(r *RunIndex, x, y []float64, k int, cols []int) {
	checkMulMat(m.Rows, m.Cols, x, y, k, "CSR32 MulMatCols")
	mulMatRows(r, m.RowPtr, m.ColIdx, m.Val, x, y, k, cols, 0, m.Rows)
}

// checkMulMat panics, naming the product, unless k ≥ 1 and x and y hold k
// interleaved columns of a rows×cols matrix's input and output.
func checkMulMat(rows, cols int, x, y []float64, k int, name string) {
	if k < 1 {
		panic(fmt.Sprintf("sparse: %s batch size %d < 1", name, k))
	}
	if len(x) != cols*k || len(y) != rows*k {
		panic(fmt.Sprintf("sparse: %s shape mismatch: A is %dx%d, k=%d, len(x)=%d, len(y)=%d",
			name, rows, cols, k, len(x), len(y)))
	}
}
