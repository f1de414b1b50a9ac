package sparse

import "fmt"

// The amd64 bodies of the k-wide product and of the 1-wide one:
// rowkernel_amd64.s walks a block of rows, with one column pair in the two
// lanes of an XMM register (over the entries or over the runs), or one row's
// runs two entries per load, or one row's entries, and this file is
// everything Go has to do around it — the shape checks the assembly relies
// on, the pairing of the active columns, the running dot carried from block
// to block and the panic for a row the assembly would not finish.

//go:noescape
func mulMatPairF64(rowPtr, colIdx []int, val []float64, x, y []float64, lo, hi, xrows, k, c0, c1 int) int

//go:noescape
func mulMatPairF32(rowPtr, colIdx []int, val []float32, x, y []float64, lo, hi, xrows, k, c0, c1 int) int

//go:noescape
func mulMatRunsF64(runPtr, runs []int, val []float64, x, y []float64, lo, hi, v, nruns, xrows, k, c0, c1 int) int

//go:noescape
func mulMatRunsF32(runPtr, runs []int, val []float32, x, y []float64, lo, hi, v, nruns, xrows, k, c0, c1 int) int

//go:noescape
func mulMatRuns2F64(runPtr, runs []int, val []float64, x, y []float64, lo, hi, v, nruns, xrows int) int

//go:noescape
func mulVecRunsF64(runPtr, runs []int, val []float64, x, y []float64, lo, hi, v int, w []float64, sum float64) (int, float64)

//go:noescape
func mulVecRunsF32(runPtr, runs []int, val []float32, x, y []float64, lo, hi, v int, w []float64, sum float64) (int, float64)

//go:noescape
func mulVecRowsF64(rowPtr, colIdx []int, val []float64, x, y []float64, lo, hi int, w []float64, sum float64) (int, float64)

//go:noescape
func mulVecRowsF32(rowPtr, colIdx []int, val []float32, x, y []float64, lo, hi int, w []float64, sum float64) (int, float64)

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
// walked once per pair while it is in cache — over the runs of r where the
// pattern has a run index (nil: over the entries; a float64 batch of two
// with both columns active takes the run body built for k = 2). It panics,
// with the row named, wherever mulMatRowsGo's bounds checks would, and on
// the run index's faults where mulVec does.
func mulMatWide[V Value](r *RunIndex, rowPtr, colIdx []int, val []V, x, y []float64, k int, cols []int, lo, hi int) {
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
	if r != nil && hi >= len(r.ptr) {
		panic(fmt.Sprintf("sparse: run product of rows [%d, %d): the run index ends at row %d", lo, hi, len(r.ptr)-1))
	}
	for a := 0; a < n; a++ {
		if c := colAt(cols, a); c < 0 || c >= k {
			panic(fmt.Sprintf("sparse: k-wide product: active column %d outside [0, %d)", c, k))
		}
	}
	xrows := len(x) / k
	for b := lo; b < hi; b += rowBlock {
		e := min(b+rowBlock, hi)
		v := rowPtr[b]
		if r != nil && (v < 0 || v > len(val)) {
			panic(fmt.Sprintf("sparse: run product, row %d: RowPtr %d outside the %d values", b, v, len(val)))
		}
		for a := 0; a < n; a += 2 {
			c0 := colAt(cols, a)
			c1 := c0
			if a+1 < n {
				c1 = colAt(cols, a+1)
			}
			var done int
			switch vs := any(val).(type) {
			case []float64:
				switch {
				case r != nil && k == 2 && c0 == 0 && c1 == 1:
					done = mulMatRuns2F64(r.ptr, r.runs, vs, x, y, b, e, v, len(r.runs)/2, xrows)
				case r != nil:
					done = mulMatRunsF64(r.ptr, r.runs, vs, x, y, b, e, v, len(r.runs)/2, xrows, k, c0, c1)
				default:
					done = mulMatPairF64(rowPtr, colIdx, vs, x, y, b, e, xrows, k, c0, c1)
				}
			case []float32:
				if r != nil {
					done = mulMatRunsF32(r.ptr, r.runs, vs, x, y, b, e, v, len(r.runs)/2, xrows, k, c0, c1)
				} else {
					done = mulMatPairF32(rowPtr, colIdx, vs, x, y, b, e, xrows, k, c0, c1)
				}
			}
			if done < e {
				if r != nil {
					badRunRow(r, xrows, done)
				}
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

// mulVec computes y[i] = (row i)·x for the rows [lo, hi), one row block per
// call into the assembly — over the runs of r where the pattern has a run
// index (row b's values start at rowPtr[b]), over the entries otherwise —
// and returns sum plus Σᵢ w[i]·y[i] over those rows, added in ascending i
// as each row is stored (w nil: sum). It panics, with the row named, where
// mulVecRows's bounds checks would, and on run pointers that run backwards
// or past the index and on a run that leaves x or the values.
func mulVec[V Value](r *RunIndex, rowPtr, colIdx []int, val []V, x, y, w []float64, lo, hi int, sum float64) float64 {
	if lo >= hi {
		return sum
	}
	fit := min(len(rowPtr)-1, len(y))
	if r != nil {
		fit = min(fit, len(r.ptr)-1)
	}
	if w != nil {
		fit = min(fit, len(w))
	}
	if lo < 0 || hi > fit {
		panic(fmt.Sprintf("sparse: product of rows [%d, %d): RowPtr, y, the run index and w end at row %d", lo, hi, fit))
	}
	for b := lo; b < hi; b += rowBlock {
		e := min(b+rowBlock, hi)
		done := e
		if r == nil {
			switch vs := any(val).(type) {
			case []float64:
				done, sum = mulVecRowsF64(rowPtr, colIdx, vs, x, y, b, e, w, sum)
			case []float32:
				done, sum = mulVecRowsF32(rowPtr, colIdx, vs, x, y, b, e, w, sum)
			}
			if done < e {
				badVecRow(rowPtr, colIdx, val, x, y, done)
			}
			continue
		}
		v := rowPtr[b]
		if v < 0 || v > len(val) {
			panic(fmt.Sprintf("sparse: run product, row %d: RowPtr %d outside the %d values", b, v, len(val)))
		}
		switch vs := any(val).(type) {
		case []float64:
			done, sum = mulVecRunsF64(r.ptr, r.runs, vs, x, y, b, e, v, w, sum)
		case []float32:
			done, sum = mulVecRunsF32(r.ptr, r.runs, vs, x, y, b, e, v, w, sum)
		}
		if done < e {
			badRunRow(r, len(x), done)
		}
	}
	return sum
}

// badVecRow panics on row i, which the entry walk refused: it replays the
// row on the portable body, whose bounds checks say what is wrong with it.
func badVecRow[V Value](rowPtr, colIdx []int, val []V, x, y []float64, i int) {
	defer func() {
		r := recover()
		if r == nil {
			r = fmt.Sprintf("a column index is not below len(x) = %d", len(x))
		}
		panic(fmt.Sprintf("sparse: product, row %d: %v", i, r))
	}()
	mulVecRows(rowPtr, colIdx, val, x, y, i, i+1)
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
