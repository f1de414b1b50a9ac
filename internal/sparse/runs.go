package sparse

import "fmt"

// Column runs. The FSAIE and FSAIE-Comm patterns add the entries that fill
// cache lines the base pattern already touches, so most of a factor's stored
// entries sit in runs of consecutive columns — a run of 8 is one 64-byte
// line of x. A RunIndex lists each row's maximal runs as (first column,
// length) in entry order, and MulVecRuns walks them instead of the entries:
// one start and one length per run, two entries per SSE2 load on amd64.
// Each row still adds its terms left to right in entry order, so y holds
// the bits RowDot gives. The index is a property of the pattern, built once
// per pattern; ColIdx stays, because everything but this product reads it.

// RunIndex is the run index of a CSR pattern: row i's runs are r in
// [ptr[i], ptr[i+1]), run r starting at column runs[2r] and holding
// runs[2r+1] consecutive columns. Read-only once built.
type RunIndex struct {
	ptr  []int
	runs []int
}

// IndexRuns returns the run index of the pattern rowPtr/colIdx, or nil when
// the runs would take no fewer index words than the column indices do
// (2·runs ≥ nnz), where walking entries costs no more.
func IndexRuns(rowPtr, colIdx []int) *RunIndex {
	n := countRuns(rowPtr, colIdx)
	if 2*n >= len(colIdx) {
		return nil
	}
	return buildRuns(rowPtr, colIdx, n)
}

// countRuns counts the maximal runs of consecutive columns over all rows.
func countRuns(rowPtr, colIdx []int) int {
	n := 0
	for i := 0; i+1 < len(rowPtr); i++ {
		cs := colIdx[rowPtr[i]:rowPtr[i+1]]
		for e, c := range cs {
			if e == 0 || c != cs[e-1]+1 {
				n++
			}
		}
	}
	return n
}

// buildRuns lists the n runs of the pattern.
func buildRuns(rowPtr, colIdx []int, n int) *RunIndex {
	r := &RunIndex{ptr: make([]int, len(rowPtr)), runs: make([]int, 0, 2*n)}
	for i := 0; i+1 < len(rowPtr); i++ {
		cs := colIdx[rowPtr[i]:rowPtr[i+1]]
		for e, c := range cs {
			if e == 0 || c != cs[e-1]+1 {
				r.runs = append(r.runs, c, 0)
			}
			r.runs[len(r.runs)-1]++
		}
		r.ptr[i+1] = len(r.runs) / 2
	}
	return r
}

// Words is the number of index words r holds (0 for nil).
func (r *RunIndex) Words() int {
	if r == nil {
		return 0
	}
	return len(r.ptr) + len(r.runs)
}

// MulVecRuns computes y = A·x as MulVec does, walking the runs of r, the
// run index of m's pattern (nil: MulVec).
func (m *CSR) MulVecRuns(r *RunIndex, x, y []float64) {
	if r == nil {
		m.MulVec(x, y)
		return
	}
	checkRuns(m.Rows, m.Cols, x, y)
	mulVecRuns(r, m.RowPtr, m.ColIdx, m.Val, x, y, 0, m.Rows)
}

// MulVecRuns is CSR.MulVecRuns on float32 values, accumulating in float64.
func (m *CSR32) MulVecRuns(r *RunIndex, x, y []float64) {
	if r == nil {
		m.MulVec(x, y)
		return
	}
	checkRuns(m.Rows, m.Cols, x, y)
	mulVecRuns(r, m.RowPtr, m.ColIdx, m.Val, x, y, 0, m.Rows)
}

func checkRuns(rows, cols int, x, y []float64) {
	if len(x) != cols || len(y) != rows {
		panic(fmt.Sprintf("sparse: MulVecRuns shape mismatch: A is %dx%d, len(x)=%d, len(y)=%d", rows, cols, len(x), len(y)))
	}
}
