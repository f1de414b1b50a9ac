package sparse

import "fmt"

// The amd64 bodies of the k-wide product and of the 1-wide one:
// rowkernel_amd64.s walks a block of rows, with one column pair in the two
// lanes of an XMM register (over the entries or over the runs), or one
// row's runs a line of x per two 256-bit loads, or one row's entries, and
// this file is everything Go has to do around it — the shape checks the
// assembly relies on (for the runs, the run index's own check,
// RunIndex.stop), the pairing of the active columns, the running dot
// carried from block to block and the panic for a row the assembly would
// not finish.

//go:noescape
func mulMatPairF64(rowPtr, colIdx []int, val []float64, x, y []float64, lo, hi, xrows, k, c0, c1 int) int

//go:noescape
func mulMatPairF32(rowPtr, colIdx []int, val []float32, x, y []float64, lo, hi, xrows, k, c0, c1 int) int

//go:noescape
func mulMatRunsF64(runPtr, runs []int, val []float64, x, y []float64, lo, hi, k, c0, c1 int)

//go:noescape
func mulMatRunsF32(runPtr, runs []int, val []float32, x, y []float64, lo, hi, k, c0, c1 int)

//go:noescape
func mulMatRuns2F64(runPtr, runs []int, val []float64, x, y []float64, lo, hi int)

//go:noescape
func mulVecRunsF64(runPtr, runs []int, val []float64, x, y []float64, lo, hi int, w []float64, sum float64) float64

//go:noescape
func mulVecRunsF32(runPtr, runs []int, val []float32, x, y []float64, lo, hi int, w []float64, sum float64) float64

//go:noescape
func mulVecRowsF64(rowPtr, colIdx []int, val []float64, x, y []float64, lo, hi int, w []float64, sum float64) (int, float64)

//go:noescape
func mulVecRowsF32(rowPtr, colIdx []int, val []float32, x, y []float64, lo, hi int, w []float64, sum float64) (int, float64)

func cpuFeatures()

// sse3 says whether the k-wide kernels' one instruction beyond the amd64
// baseline (MOVDDUP) is there; without it the portable body runs. avx2 says
// whether the 1-wide run product's VEX body runs; without AVX2 mulVecRunsGo
// walks the runs. cpuFeatures sets both, once.
var sse3, avx2 bool

func init() { cpuFeatures() }

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
		v, stop, fault := 0, e, ""
		if r != nil {
			v = rowPtr[b]
			if v < 0 || v > len(val) {
				panic(fmt.Sprintf("sparse: run product, row %d: RowPtr %d outside the %d values", b, v, len(val)))
			}
			stop, fault = r.stop(b, e, xrows, len(val)-v)
		}
		for a := 0; a < n; a += 2 {
			c0 := colAt(cols, a)
			c1 := c0
			if a+1 < n {
				c1 = colAt(cols, a+1)
			}
			done := stop
			switch vs := any(val[v:]).(type) { // v is 0 over the entries
			case []float64:
				switch {
				case r != nil && k == 2 && c0 == 0 && c1 == 1:
					mulMatRuns2F64(r.ptr, r.runs, vs, x, y, b, stop)
				case r != nil:
					mulMatRunsF64(r.ptr, r.runs, vs, x, y, b, stop, k, c0, c1)
				default:
					done = mulMatPairF64(rowPtr, colIdx, vs, x, y, b, e, xrows, k, c0, c1)
				}
			case []float32:
				if r != nil {
					mulMatRunsF32(r.ptr, r.runs, vs, x, y, b, stop, k, c0, c1)
				} else {
					done = mulMatPairF32(rowPtr, colIdx, vs, x, y, b, e, xrows, k, c0, c1)
				}
			}
			if done < e {
				if fault != "" {
					panic(fault)
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
// or past the index and on a run that leaves x or the values: a block the
// index's check (RunIndex.stop) does not pass is walked up to its first
// such row, which is not written, and nothing after it is.
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
		done, fault := r.stop(b, e, len(x), len(val)-v)
		switch vs := any(val).(type) {
		case []float64:
			if avx2 {
				sum = mulVecRunsF64(r.ptr, r.runs, vs[v:], x, y, b, done, w, sum)
			} else {
				sum = mulVecRunsGo(r, vs[v:], x, y, b, done, w, sum)
			}
		case []float32:
			if avx2 {
				sum = mulVecRunsF32(r.ptr, r.runs, vs[v:], x, y, b, done, w, sum)
			} else {
				sum = mulVecRunsGo(r, vs[v:], x, y, b, done, w, sum)
			}
		}
		if fault != "" {
			panic(fault)
		}
	}
	return sum
}

// mulVecRunsGo is the run product where the CPU has no AVX2: the runs of
// the rows [lo, hi), which RunIndex.stop has checked, walked in Go from the
// row's first value with RowDot's sum, and the running dot carried as the
// assembly carries it.
func mulVecRunsGo[V Value](r *RunIndex, val []V, x, y []float64, lo, hi int, w []float64, sum float64) float64 {
	for i := lo; i < hi; i++ {
		s := 0.0
		for t := r.ptr[i]; t < r.ptr[i+1]; t++ {
			c, n := r.runs[2*t], r.runs[2*t+1]
			for j, v := range val[:n] {
				s += float64(v) * x[c+j]
			}
			val = val[n:]
		}
		y[i] = s
		if w != nil {
			sum += w[i] * y[i]
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
