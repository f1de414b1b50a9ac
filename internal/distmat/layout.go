// Package distmat implements the distributed-memory sparse-matrix substrate
// of the reproduction: row-wise distribution of a square sparse matrix over
// simmpi ranks, halo-exchange plans, distributed matrix-vector products, and
// the remote-row gathering the parallel FSAI setup needs.
//
// Conventions. A square global matrix is distributed by contiguous row
// blocks described by a Layout; the helper ApplyPartition turns an arbitrary
// partition assignment (e.g. from the multilevel partitioner) into a
// symmetric permutation that makes ownership contiguous, exactly as the
// paper renumbers unknowns after METIS. Vectors x and b follow the row
// distribution. Per-rank matrices keep *global* column indices for pattern
// work; a Localized view remaps columns to local-then-halo positions for the
// SpMV kernels, mirroring how distributed CSR codes store local and halo
// entries separately.
//
// The halo update is written once (exchange.go) and blocks: scalar and
// k-wide updates, at full width or with float32 on the wire, are one post
// and one complete over a plan's schedule. The
// one-rank world needs no second code path either: LocalOp wraps an
// undistributed matrix, Dot and Norm2 take a nil Comm, and a plan with no
// peers lets the product read its input in place.
package distmat

import (
	"fmt"
	"sort"

	"fsaicomm/internal/sparse"
)

// Layout describes a contiguous row distribution: rank r owns global rows
// [Offsets[r], Offsets[r+1]).
type Layout struct {
	N       int
	Offsets []int
}

// NewUniformLayout splits n rows into nranks near-equal contiguous blocks.
func NewUniformLayout(n, nranks int) *Layout {
	if nranks < 1 || n < 0 {
		panic(fmt.Sprintf("distmat: bad layout n=%d nranks=%d", n, nranks))
	}
	off := make([]int, nranks+1)
	for r := 0; r <= nranks; r++ {
		off[r] = r * n / nranks
	}
	return &Layout{N: n, Offsets: off}
}

// NRanks returns the number of ranks in the layout.
func (l *Layout) NRanks() int { return len(l.Offsets) - 1 }

// Owner returns the rank owning global row g.
func (l *Layout) Owner(g int) int {
	if g < 0 || g >= l.N {
		panic(fmt.Sprintf("distmat: Owner(%d) outside [0,%d)", g, l.N))
	}
	// Binary search for the block containing g.
	r := sort.Search(l.NRanks(), func(r int) bool { return l.Offsets[r+1] > g })
	return r
}

// Range returns the half-open global row range owned by rank.
func (l *Layout) Range(rank int) (lo, hi int) {
	return l.Offsets[rank], l.Offsets[rank+1]
}

// LocalSize returns the number of rows owned by rank.
func (l *Layout) LocalSize(rank int) int {
	return l.Offsets[rank+1] - l.Offsets[rank]
}

// Validate checks layout invariants.
func (l *Layout) Validate() error {
	if len(l.Offsets) < 2 {
		return fmt.Errorf("distmat: layout needs at least one rank")
	}
	if l.Offsets[0] != 0 || l.Offsets[len(l.Offsets)-1] != l.N {
		return fmt.Errorf("distmat: layout offsets must span [0,%d], got %v", l.N, l.Offsets)
	}
	for r := 1; r < len(l.Offsets); r++ {
		if l.Offsets[r] < l.Offsets[r-1] {
			return fmt.Errorf("distmat: layout offsets decrease at %d", r)
		}
	}
	return nil
}

// ApplyPartition symmetrically permutes a so that the rows assigned to each
// part become contiguous, preserving the original relative order within each
// part. It returns the permuted matrix, the resulting layout, and the
// permutation oldToNew (new index of old row i is oldToNew[i]).
func ApplyPartition(a *sparse.CSR, part []int, nparts int) (*sparse.CSR, *Layout, []int) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("distmat: ApplyPartition on non-square %dx%d matrix", a.Rows, a.Cols))
	}
	if len(part) != a.Rows {
		panic(fmt.Sprintf("distmat: partition length %d, want %d", len(part), a.Rows))
	}
	l, oldToNew := PartitionLayout(part, nparts)
	return Permute(a, oldToNew), l, oldToNew
}

// PartitionLayout turns a partition assignment into the contiguous layout
// and the permutation oldToNew that realizes it: the rows of part r become
// the block Range(r), in their original relative order.
func PartitionLayout(part []int, nparts int) (*Layout, []int) {
	n := len(part)
	counts := make([]int, nparts)
	for _, p := range part {
		if p < 0 || p >= nparts {
			panic(fmt.Sprintf("distmat: part id %d outside [0,%d)", p, nparts))
		}
		counts[p]++
	}
	offsets := make([]int, nparts+1)
	for r := 0; r < nparts; r++ {
		offsets[r+1] = offsets[r] + counts[r]
	}
	oldToNew := make([]int, n)
	next := append([]int(nil), offsets[:nparts]...)
	for i := 0; i < n; i++ {
		oldToNew[i] = next[part[i]]
		next[part[i]]++
	}
	return &Layout{N: n, Offsets: offsets}, oldToNew
}

// Permute applies the symmetric permutation P A Pᵀ where new index of old
// row/column i is oldToNew[i].
func Permute(a *sparse.CSR, oldToNew []int) *sparse.CSR {
	pa, src := PermutePattern(a, oldToNew)
	pa.Val = Gather(a.Val, src)
	return pa
}

// PermutePattern is the structure of Permute: the permuted matrix without
// values, and for each of its entries the position in a's entry arrays it
// came from, so that Gather(a.Val, src) are the permuted values — of a, or
// of any matrix with a's pattern. A permutation moves whole rows, so each
// new row is filled in one go; it is sorted only if the permutation
// disturbed the order of its columns.
func PermutePattern(a *sparse.CSR, oldToNew []int) (pa *sparse.CSR, src []int) {
	pa = &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int, a.Rows+1), ColIdx: make([]int, a.NNZ())}
	src = make([]int, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		pa.RowPtr[oldToNew[i]+1] = a.RowNNZ(i)
	}
	for i := 0; i < a.Rows; i++ {
		pa.RowPtr[i+1] += pa.RowPtr[i]
	}
	for i := 0; i < a.Rows; i++ {
		lo := pa.RowPtr[oldToNew[i]]
		cols := pa.ColIdx[lo : lo+a.RowNNZ(i)]
		from := src[lo : lo+len(cols)]
		sorted := true
		for k := range cols {
			p := a.RowPtr[i] + k
			cols[k], from[k] = oldToNew[a.ColIdx[p]], p
			if k > 0 && cols[k] < cols[k-1] {
				sorted = false
			}
		}
		if !sorted {
			sparse.SortRowByColumn(cols, from)
		}
	}
	return pa, src
}

// Gather returns the values at the positions src names: out[k] = vals[src[k]].
func Gather(vals []float64, src []int) []float64 {
	out := make([]float64, len(src))
	for k, p := range src {
		out[k] = vals[p]
	}
	return out
}

// PermuteVec returns the vector with components moved to their new indices.
func PermuteVec(x []float64, oldToNew []int) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[oldToNew[i]] = v
	}
	return out
}

// ExtractLocalRows returns the block of global rows [lo,hi) of a as a CSR
// with hi-lo rows and untouched (global) column indices. In this simulated
// runtime every rank shares the process address space, so "scattering" the
// matrix is a slice extraction: the block's entry arrays are views into a's
// (read-only, like a itself), only the row pointers are its own.
func ExtractLocalRows(a *sparse.CSR, lo, hi int) *sparse.CSR {
	p, q := a.RowPtr[lo], a.RowPtr[hi]
	out := &sparse.CSR{Rows: hi - lo, Cols: a.Cols, RowPtr: make([]int, hi-lo+1), ColIdx: a.ColIdx[p:q:q]}
	if a.Val != nil {
		out.Val = a.Val[p:q:q]
	}
	for i := range out.RowPtr {
		out.RowPtr[i] = a.RowPtr[lo+i] - p
	}
	return out
}
