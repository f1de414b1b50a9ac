//go:build !amd64

package sparse

// mulMatWide is the k-wide product where rowkernel_amd64.s does not build:
// the portable body.
func mulMatWide[V Value](rowPtr, colIdx []int, val []V, x, y []float64, k int, cols []int, lo, hi int) {
	mulMatRowsGo(rowPtr, colIdx, val, x, y, k, cols, lo, hi)
}
