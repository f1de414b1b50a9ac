//go:build !amd64

package sparse

// mulMatWide is the k-wide product where rowkernel_amd64.s does not build:
// the portable body, which walks the entries whatever the run index — the
// same bits.
func mulMatWide[V Value](_ *RunIndex, rowPtr, colIdx []int, val []V, x, y []float64, k int, cols []int, lo, hi int) {
	mulMatRowsGo(rowPtr, colIdx, val, x, y, k, cols, lo, hi)
}

// mulVec is the 1-wide product where rowkernel_amd64.s does not build: the
// rows walked entry by entry, which gives the run walk's bits, then the dot
// with w over them in ascending rows.
func mulVec[V Value](_ *RunIndex, rowPtr, colIdx []int, val []V, x, y, w []float64, lo, hi int, sum float64) float64 {
	mulVecRows(rowPtr, colIdx, val, x, y, lo, hi)
	if w == nil {
		return sum
	}
	return dotRows(w, y, lo, hi, sum)
}
