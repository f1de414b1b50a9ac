package sparse

import (
	"fmt"
	"math"
	"sync"
)

// Column runs. The FSAIE and FSAIE-Comm patterns add the entries that fill
// cache lines the base pattern already touches, so most of a factor's stored
// entries sit in runs of consecutive columns — a run of 8 is one 64-byte
// line of x. A RunIndex lists each row's maximal runs as (first column,
// length) in entry order, and MulVecDot and MulMatCols walk them instead of
// the entries: one start and one length per run, then on amd64 a line of x
// per two 256-bit loads at width 1 (AVX2), or a column pair per register at
// stride k for a k-wide block. Each sum still adds its terms left to right
// in entry order, so y holds the bits RowDot gives. The index is a property
// of the pattern, built once per pattern; ColIdx stays, because everything
// but these products reads it.
//
// The index checks itself once, on its first product (validate), and the
// products then check a block of rows against what it found in O(1) —
// not every run on every walk. Concurrent solves share one index, so the
// check runs under a sync.Once.

// RunIndex is the run index of a CSR pattern: row i's runs are r in
// [ptr[i], ptr[i+1]), run r starting at column runs[2r] and holding
// runs[2r+1] consecutive columns. Read-only once built, but for the
// validation its first product memoizes.
type RunIndex struct {
	ptr  []int
	runs []int

	once sync.Once
	// bad is the first row whose run pointers run backwards or leave the
	// index, or that holds a negative start or length, or whose run ends or
	// running length overflow an int (the number of rows if none); end is
	// the largest run end of the rows before it, and cum[i] the values the
	// rows before row i consume, for i ≤ bad.
	bad, end int
	cum      []int
}

// validateRuns is the index's one validation; a test counts its calls.
var validateRuns = (*RunIndex).validate

// validate finds what the products check a block against.
func (r *RunIndex) validate() {
	r.cum = make([]int, len(r.ptr))
	r.bad = len(r.ptr) - 1
	for i := range r.bad {
		p, q, sum := r.ptr[i], r.ptr[i+1], r.cum[i]
		if p < 0 || p > q || q > len(r.runs)/2 {
			r.bad = i
			return
		}
		for t := p; t < q; t++ {
			s, n := r.runs[2*t], r.runs[2*t+1]
			if s < 0 || n < 0 || s > math.MaxInt-n || sum > math.MaxInt-n {
				r.bad = i
				return
			}
			r.end, sum = max(r.end, s+n), sum+n
		}
		r.cum[i+1] = sum
	}
}

// stop returns hi when the runs of rows [lo, hi) lie inside an x of xrows
// rows and take at most left values. Otherwise it returns the first of
// those rows whose runs do not, with the panic that names it (hi and "" if
// the failing row lies past hi): a run kernel walks rows [lo, stop)
// unchecked, then the caller panics. The caller has checked that the index
// holds row hi-1.
func (r *RunIndex) stop(lo, hi, xrows, left int) (int, string) {
	r.once.Do(func() { validateRuns(r) })
	if r.bad >= hi && r.end <= xrows && r.cum[hi]-r.cum[lo] <= left {
		return hi, ""
	}
	for i := lo; i < hi; i++ {
		p, q := r.ptr[i], r.ptr[i+1]
		if p < 0 || p > q || q > len(r.runs)/2 {
			return i, fmt.Sprintf("sparse: run product, row %d: runs [%d, %d) run backwards or past the %d indexed", i, p, q, len(r.runs)/2)
		}
		for t := p; t < q; t++ {
			s, n := r.runs[2*t], r.runs[2*t+1]
			if s < 0 || s >= xrows || n < 0 || n > xrows-s || n > left {
				return i, fmt.Sprintf("sparse: run product, row %d: a run of %d from column %d leaves x (%d entries) or the %d values left", i, n, s, xrows, left)
			}
			left -= n
		}
	}
	return hi, ""
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

// Words is the number of index words r holds, its validation's included
// (0 for nil).
func (r *RunIndex) Words() int {
	if r == nil {
		return 0
	}
	return 2*len(r.ptr) + len(r.runs)
}

// MulVecDot computes y = A·x as MulVec does, walking the runs of r, the run
// index of m's pattern (nil: the entries), and returns wᵀy: Σᵢ w[i]·y[i]
// over the rows, added from +0 in ascending i as each row of y is stored —
// the bits of vecops.Dot(w, y) after the product, without the second sweep.
// A nil w is the product alone, returning 0.
func (m *CSR) MulVecDot(r *RunIndex, x, y, w []float64) float64 {
	checkRuns(m.Rows, m.Cols, x, y, w)
	return mulVec(r, m.RowPtr, m.ColIdx, m.Val, x, y, w, 0, m.Rows, 0)
}

// MulVecDot is CSR.MulVecDot on float32 values, accumulating in float64.
func (m *CSR32) MulVecDot(r *RunIndex, x, y, w []float64) float64 {
	checkRuns(m.Rows, m.Cols, x, y, w)
	return mulVec(r, m.RowPtr, m.ColIdx, m.Val, x, y, w, 0, m.Rows, 0)
}

// checkRuns panics unless x and y fit a rows×cols matrix's product and w,
// when the product also reduces, holds rows values.
func checkRuns(rows, cols int, x, y, w []float64) {
	if len(x) != cols || len(y) != rows || (w != nil && len(w) != rows) {
		panic(fmt.Sprintf("sparse: MulVecDot shape mismatch: A is %dx%d, len(x)=%d, len(y)=%d, len(w)=%d", rows, cols, len(x), len(y), len(w)))
	}
}
