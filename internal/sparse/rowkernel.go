package sparse

// The product kernels behind every y = A·x loop of the repository: CSR
// MulVec, MulVecDot, MulMat and MulMatCols all land here.
//
// RowDot is the scalar kernel and rowDotCols the k-wide one. Both take one
// row as hoisted slices (cs, vs) instead of indexing RowPtr, ColIdx and Val
// per entry, and re-slice vs to len(cs), so the compiler proves every access
// but the gather from x in range — `make bce` fails the build if another
// check creeps into a line marked bce:inner. Each sum adds its terms left to
// right in entry order, so the results are the bits the indexed loops
// produced. On amd64 the products run rowkernel_amd64.s instead, and the Go
// bodies stay as the bodies of every other platform, the references the
// assembly is fuzzed against and the replays that word the panic for a row
// the assembly refuses: a k-wide product takes a column pair in the two
// lanes of one XMM register, a pair for the price of one column, in place of
// rowDotCols; a 1-wide one walks the entries in place of mulVecRows, whose
// Go loop spends more instructions per row on re-slicing and reloading than
// a short row spends on its entries. A product over a pattern that is mostly
// column runs (runs.go) walks the runs at every width on amd64, the index
// checked once, not per run: at width 1 one index pair per run and a line
// of x per two 256-bit loads (AVX2); wider, the pair kernel's lanes with one index
// pair per run (at k = 2 with both columns active, a body with the stride
// built in). Each is the same left-to-right
// sum; elsewhere the entries are walked, and RowDot is what all are fuzzed
// against. The 1-wide kernels can also return wᵀy, adding wᵢyᵢ as they store
// row i, from +0 in ascending i: vecops.Dot's order, so its bits (dotRows is
// the portable form).

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
// given as its three arrays. It is the portable body of the 1-wide product
// over the entries, and on amd64 the reference of the entry walk
// (mulVecRowsF64/F32) and the replay that words its panic.
func mulVecRows[V Value](rowPtr, colIdx []int, val []V, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s, e := rowPtr[i], rowPtr[i+1]
		y[i] = RowDot(colIdx[s:e], val[s:e], x)
	}
}

// dotRows returns sum plus Σᵢ w[i]·y[i] over the rows [lo, hi), added in
// ascending i: from sum = +0 over every row, vecops.Dot(w, y)'s bits.
func dotRows(w, y []float64, lo, hi int, sum float64) float64 {
	for i := lo; i < hi; i++ {
		sum += w[i] * y[i]
	}
	return sum
}

// blockCols is the number of columns a k-wide product walks under a mask
// (nil = all k), and colAt the a-th of them: an unmasked product of any width
// builds no list.
func blockCols(k int, cols []int) int {
	if cols == nil {
		return k
	}
	return len(cols)
}

func colAt(cols []int, a int) int {
	if cols == nil {
		return a
	}
	return cols[a]
}

// rowDotCols writes the products of one stored row with the active columns
// (cols, nil = all k) of k interleaved vectors (x[j*k+c] is component j of
// column c) into yi, that row of the result; the other columns of yi are
// left alone. It takes the columns two at a time — one pass over the row's
// entries per pair, each entry loaded once for two columns — and an odd last
// column alone. Column c's sum adds the same terms in the same order as
// RowDot on the de-interleaved column c. This is the portable body of the
// k-wide product and the reference the amd64 one (rowkernel_amd64.s, the
// same walk with a pair in the lanes of one register) is fuzzed against.
func rowDotCols[V Value](cs []int, vs []V, x, yi []float64, k int, cols []int) {
	vs = vs[:len(cs)]
	n := blockCols(k, cols)
	a := 0
	for ; a+1 < n; a += 2 {
		c0, c1 := colAt(cols, a), colAt(cols, a+1)
		s0, s1 := 0.0, 0.0
		for e, c := range cs { // bce:inner
			v := float64(vs[e]) // bce:inner
			s0 += v * x[c*k+c0] // bce:inner gather
			s1 += v * x[c*k+c1] // bce:inner gather
		}
		yi[c0], yi[c1] = s0, s1
	}
	if a < n {
		c0 := colAt(cols, a)
		s0 := 0.0
		for e, c := range cs { // bce:inner
			v := float64(vs[e]) // bce:inner
			s0 += v * x[c*k+c0] // bce:inner gather
		}
		yi[c0] = s0
	}
}

// mulMatRowsGo computes rows [lo, hi) of the active columns of Y = A·X on
// the portable body.
func mulMatRowsGo[V Value](rowPtr, colIdx []int, val []V, x, y []float64, k int, cols []int, lo, hi int) {
	for i := lo; i < hi; i++ {
		s, e := rowPtr[i], rowPtr[i+1]
		rowDotCols(colIdx[s:e], val[s:e], x, y[i*k:(i+1)*k], k, cols)
	}
}

// mulMatRows computes rows [lo, hi) of the active columns (cols, nil = all
// k) of Y = A·X, walking the runs of r, the run index of the pattern (nil:
// the entries). A 1-wide block over the entries is a plain vector, so its
// product is the scalar kernel; anything else takes the platform's k-wide
// body (mulMatWide: the assembly on amd64, over the runs or the entries;
// mulMatRowsGo elsewhere), where a 1-wide block under an index rides both
// lanes — the operators' 1-wide products take MulVecDot instead.
func mulMatRows[V Value](r *RunIndex, rowPtr, colIdx []int, val []V, x, y []float64, k int, cols []int, lo, hi int) {
	if k == 1 && blockCols(k, cols) == 1 && r == nil {
		mulVec(nil, rowPtr, colIdx, val, x, y, nil, lo, hi, 0)
		return
	}
	mulMatWide(r, rowPtr, colIdx, val, x, y, k, cols, lo, hi)
}
