package sparse

import "fmt"

// The amd64 body of the k-wide product: rowkernel_amd64.s walks a block of
// rows with one column pair in the two lanes of an XMM register, and this
// file is everything Go has to do around it — the shape checks the assembly
// relies on, the pairing of the active columns and the panic for a row the
// assembly would not finish.

//go:noescape
func mulMatPairF64(rowPtr, colIdx []int, val []float64, x, y []float64, lo, hi, xrows, k, c0, c1 int) int

//go:noescape
func mulMatPairF32(rowPtr, colIdx []int, val []float32, x, y []float64, lo, hi, xrows, k, c0, c1 int) int

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
