package sparse

import "fmt"

// The amd64 bodies of the k-wide product and of the run product:
// rowkernel_amd64.s walks a block of rows, with one column pair in the two
// lanes of an XMM register or one row's runs two entries per load, and this
// file is everything Go has to do around it — the shape checks the assembly
// relies on, the pairing of the active columns and the panic for a row the
// assembly would not finish.

//go:noescape
func mulMatPairF64(rowPtr, colIdx []int, val []float64, x, y []float64, lo, hi, xrows, k, c0, c1 int) int

//go:noescape
func mulMatPairF32(rowPtr, colIdx []int, val []float32, x, y []float64, lo, hi, xrows, k, c0, c1 int) int

//go:noescape
func mulVecRunsF64(runPtr, runs []int, val []float64, x, y []float64, lo, hi, v int) int

//go:noescape
func mulVecRunsF32(runPtr, runs []int, val []float32, x, y []float64, lo, hi, v int) int

func cpuHasSSE3() bool

// sse3 says whether the assembly's one instruction beyond the amd64 baseline
// (MOVDDUP) is there; without it the portable body runs.
var sse3 = cpuHasSSE3()

// rowBlock is how many rows one call into the assembly walks. A goroutine
// cannot be stopped inside it, so a GC stop waits for one block — a few
// microseconds on the widest operator of the benchmark — never for a product.
const rowBlock = 256

// mulMatWide computes rows [lo, hi) of the active columns of Y = A·X, the
// columns two at a time and an odd last one in both lanes, each row block
// walked once per pair while it is in cache. It panics, with the row named,
// wherever mulMatRowsGo's bounds checks would.
func mulMatWide[V Value](rowPtr, colIdx []int, val []V, x, y []float64, k int, cols []int, lo, hi int) {
	n := blockCols(k, cols)
	if lo >= hi || n == 0 {
		return
	}
	if !sse3 {
		mulMatRowsGo(rowPtr, colIdx, val, x, y, k, cols, lo, hi)
		return
	}
	if fit := min(len(rowPtr)-1, len(y)/k); lo < 0 || hi > fit {
		panic(fmt.Sprintf("sparse: k-wide product of rows [%d, %d): RowPtr and y (k=%d) end at row %d", lo, hi, k, fit))
	}
	for a := 0; a < n; a++ {
		if c := colAt(cols, a); c < 0 || c >= k {
			panic(fmt.Sprintf("sparse: k-wide product: active column %d outside [0, %d)", c, k))
		}
	}
	xrows := len(x) / k
	for b := lo; b < hi; b += rowBlock {
		e := min(b+rowBlock, hi)
		for a := 0; a < n; a += 2 {
			c0 := colAt(cols, a)
			c1 := c0
			if a+1 < n {
				c1 = colAt(cols, a+1)
			}
			var done int
			switch v := any(val).(type) {
			case []float64:
				done = mulMatPairF64(rowPtr, colIdx, v, x, y, b, e, xrows, k, c0, c1)
			case []float32:
				done = mulMatPairF32(rowPtr, colIdx, v, x, y, b, e, xrows, k, c0, c1)
			}
			if done < e {
				badRow(rowPtr, colIdx, val, x, y, k, cols, done)
			}
		}
	}
}

// badRow panics on row i, which the assembly refused: it replays the row on
// the portable body, whose bounds checks say what is wrong with it.
func badRow[V Value](rowPtr, colIdx []int, val []V, x, y []float64, k int, cols []int, i int) {
	defer func() {
		r := recover()
		if r == nil {
			r = fmt.Sprintf("a column index is not below len(x)/k = %d", len(x)/k)
		}
		panic(fmt.Sprintf("sparse: k-wide product, row %d: %v", i, r))
	}()
	mulMatRowsGo(rowPtr, colIdx, val, x, y, k, cols, i, i+1)
}

// mulVecRuns computes y[i] = (row i)·x for the rows [lo, hi), walking the
// runs of r, one row block per call into the assembly; row b's values start
// at rowPtr[b]. It panics, with the row named, on run pointers that run
// backwards or past the index and on a run that leaves x or the values.
func mulVecRuns[V Value](r *RunIndex, rowPtr, _ []int, val []V, x, y []float64, lo, hi int) {
	if lo >= hi {
		return
	}
	if fit := min(len(r.ptr), len(rowPtr), len(y)+1) - 1; lo < 0 || hi > fit {
		panic(fmt.Sprintf("sparse: run product of rows [%d, %d): the run index, RowPtr and y end at row %d", lo, hi, fit))
	}
	for b := lo; b < hi; b += rowBlock {
		e := min(b+rowBlock, hi)
		v := rowPtr[b]
		if v < 0 || v > len(val) {
			panic(fmt.Sprintf("sparse: run product, row %d: RowPtr %d outside the %d values", b, v, len(val)))
		}
		var done int
		switch vs := any(val).(type) {
		case []float64:
			done = mulVecRunsF64(r.ptr, r.runs, vs, x, y, b, e, v)
		case []float32:
			done = mulVecRunsF32(r.ptr, r.runs, vs, x, y, b, e, v)
		}
		if done < e {
			badRunRow(r, len(x), done)
		}
	}
}

// badRunRow panics on row i, whose runs the assembly refused, saying what is
// wrong with them.
func badRunRow(r *RunIndex, xrows, i int) {
	p, q := r.ptr[i], r.ptr[i+1]
	if p < 0 || p > q || q > len(r.runs)/2 {
		panic(fmt.Sprintf("sparse: run product, row %d: runs [%d, %d) run backwards or past the %d indexed", i, p, q, len(r.runs)/2))
	}
	for t := p; t < q; t++ {
		if s, n := r.runs[2*t], r.runs[2*t+1]; s < 0 || s >= xrows || n < 0 || n > xrows-s {
			panic(fmt.Sprintf("sparse: run product, row %d: a run of %d from column %d leaves x (%d entries)", i, n, s, xrows))
		}
	}
	panic(fmt.Sprintf("sparse: run product, row %d: a run reads past the values", i))
}
