package sparse

// The two product kernels behind every y = A·x loop of the repository:
// CSR / CSR32 MulVec, MulVecParallel, MulMat, MulMatCols, MulMatParallel and
// distmat's interior/boundary row products all land here.
//
// Both take one row as hoisted slices (cs, vs) instead of indexing RowPtr,
// ColIdx and Val per entry, and re-slice vs to len(cs), so the compiler
// proves every access but the gather from x in range — `make bce` fails the
// build if another check creeps into a line marked bce:inner. Each sum still
// adds its terms left to right in entry order, so the results are the bits
// the indexed loops produced.

// Value is a stored matrix value: float64, or float32 for the mixed-
// precision operators. Products always accumulate in float64.
type Value interface{ float32 | float64 }

// RowDot returns Σₑ vs[e]·x[cs[e]], the product of one stored row with x.
func RowDot[V Value](cs []int, vs []V, x []float64) float64 {
	vs = vs[:len(cs)]
	sum := 0.0
	for e, c := range cs { // bce:inner
		v := float64(vs[e]) // bce:inner
		sum += v * x[c]     // bce:inner gather
	}
	return sum
}

// mulVecRows computes y[i] = (row i)·x for the rows [lo, hi) of a matrix
// given as its three arrays.
func mulVecRows[V Value](rowPtr, colIdx []int, val []V, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s, e := rowPtr[i], rowPtr[i+1]
		y[i] = RowDot(colIdx[s:e], val[s:e], x)
	}
}

// firstCols[:k] is the mask "every column" of a block up to 16 wide, shared
// and never written, so an unmasked product of a usual batch width builds
// no list.
var firstCols = [...]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// activeCols resolves a column mask (nil = all k columns) to the list the
// k-wide kernel walks.
func activeCols(k int, cols []int) []int {
	if cols == nil && k <= len(firstCols) {
		return firstCols[:k]
	}
	if cols == nil {
		cols = make([]int, k)
		for c := range cols {
			cols[c] = c
		}
	}
	return cols
}

// rowDotCols writes the products of one stored row with the active columns
// of k interleaved vectors (x[j*k+c] is component j of column c) into yi,
// that row of the result; the other columns of yi are left alone. It takes
// the columns two at a time with both sums in registers — one pass over the
// row's entries per pair, each entry loaded once for two columns — and an
// odd last column alone. Column c's sum adds the same terms in the same
// order as RowDot on the de-interleaved column c.
func rowDotCols[V Value](cs []int, vs []V, x, yi []float64, k int, active []int) {
	vs = vs[:len(cs)]
	a := 0
	for ; a+1 < len(active); a += 2 {
		c0, c1 := active[a], active[a+1]
		s0, s1 := 0.0, 0.0
		for e, c := range cs { // bce:inner
			v := float64(vs[e]) // bce:inner
			s0 += v * x[c*k+c0] // bce:inner gather
			s1 += v * x[c*k+c1] // bce:inner gather
		}
		yi[c0], yi[c1] = s0, s1
	}
	if a < len(active) {
		c0 := active[a]
		s0 := 0.0
		for e, c := range cs { // bce:inner
			v := float64(vs[e]) // bce:inner
			s0 += v * x[c*k+c0] // bce:inner gather
		}
		yi[c0] = s0
	}
}

// mulMatRows computes rows [lo, hi) of the active columns of Y = A·X. A
// 1-wide block is a plain vector, so its product is the scalar kernel.
func mulMatRows[V Value](rowPtr, colIdx []int, val []V, x, y []float64, k int, active []int, lo, hi int) {
	if k == 1 && len(active) == 1 {
		mulVecRows(rowPtr, colIdx, val, x, y, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		s, e := rowPtr[i], rowPtr[i+1]
		rowDotCols(colIdx[s:e], val[s:e], x, y[i*k:(i+1)*k], k, active)
	}
}
