package sparse

// Sparse matrix times a block of vectors (SpMM). The k right-hand vectors
// are stored row-major interleaved — X[i*k+c] is component i of vector c —
// so every stored matrix entry touches k contiguous values of X, and one
// pass over the matrix in memory serves all k vectors (the bandwidth-locality
// argument behind the batched multi-RHS solve path; the kernel walks each
// block of rows once per column pair, from cache — rowkernel_amd64.s with the
// pair in one XMM register, rowkernel.go's portable body elsewhere). Each
// column's row sum accumulates in MulVec's left-to-right entry order, so
// column c of MulMat is bit-identical to MulVec on column c alone — the
// property the batched solver's differential tests pin. A nil mask means
// every column and builds no list, at any width.

import "fmt"

// MulMat computes Y = A·X for k interleaved vectors: len(x) = Cols·k,
// len(y) = Rows·k, both row-major (x[i*k+c]). Column c of the result is
// bit-identical to MulVec on the de-interleaved column c.
func (m *CSR) MulMat(x, y []float64, k int) { m.MulMatCols(x, y, k, nil) }

// MulMatCols computes the listed columns of Y = A·X, leaving the other
// columns of y untouched. cols holds strictly ascending column indices in
// [0, k). This is the convergence-masking kernel of the batched CG loop:
// columns that have converged stop costing flops while the survivors keep
// their exact scalar-solve arithmetic. A nil cols computes every column.
func (m *CSR) MulMatCols(x, y []float64, k int, cols []int) {
	checkMulMat(m, x, y, k, "MulMatCols")
	mulMatRows(m.RowPtr, m.ColIdx, m.Val, x, y, k, cols, 0, m.Rows)
}

func checkMulMat(m *CSR, x, y []float64, k int, name string) {
	if k < 1 {
		panic(fmt.Sprintf("sparse: %s batch size %d < 1", name, k))
	}
	if len(x) != m.Cols*k || len(y) != m.Rows*k {
		panic(fmt.Sprintf("sparse: %s shape mismatch: A is %dx%d, k=%d, len(x)=%d, len(y)=%d",
			name, m.Rows, m.Cols, k, len(x), len(y)))
	}
}
