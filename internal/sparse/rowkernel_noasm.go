//go:build !amd64

package sparse

// mulMatWide is the k-wide product where rowkernel_amd64.s does not build:
// the portable body, which walks the entries whatever the run index — the
// same bits.
func mulMatWide[V Value](_ *RunIndex, rowPtr, colIdx []int, val []V, x, y []float64, k int, cols []int, lo, hi int) {
	mulMatRowsGo(rowPtr, colIdx, val, x, y, k, cols, lo, hi)
}

// mulVecRuns is the run product where rowkernel_amd64.s does not build: the
// rows walked entry by entry, which gives the same bits.
func mulVecRuns[V Value](_ *RunIndex, rowPtr, colIdx []int, val []V, x, y []float64, lo, hi int) {
	mulVecRows(rowPtr, colIdx, val, x, y, lo, hi)
}
