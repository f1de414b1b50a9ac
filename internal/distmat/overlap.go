package distmat

import (
	"sync"

	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/vecops"
)

// Communication/computation overlap. Hybrid MPI codes split each rank's
// rows into an interior set (touching only local columns) and a boundary
// set (touching halo columns): the halo update is posted, the interior
// product is computed while the values are in flight, and the boundary
// rows are finished after the receive. The simulated runtime cannot
// actually overlap in wall-clock terms, but the split changes the cost
// model (the communication term hides behind the interior compute) and the
// structure is what a real MPI port of this library would execute.

// OverlapOp wraps an Op with the interior/boundary row split.
type OverlapOp struct {
	*Op
	// Interior and Boundary are the local row indices of each class.
	Interior, Boundary []int
	// interior and boundary are the same rows as contiguous ranges, lo and
	// hi after each other: what the products walk.
	interior, boundary []int
}

// rowSplit is the interior/boundary split of a localized pattern's rows,
// made once (sync.Once) for every operator on it.
type rowSplit struct {
	once                 sync.Once
	interior, boundary   []int // row lists
	intRanges, bndRanges []int // the same rows as [lo, hi) ranges
}

// build splits the rows of lz: a row is boundary when it reads a halo
// column.
func (sp *rowSplit) build(lz *Localized) {
	nl := lz.NLocal()
	for li := 0; li < lz.M.Rows; li++ {
		cols, _ := lz.M.Row(li)
		boundary := false
		for _, c := range cols {
			if c >= nl {
				boundary = true
				break
			}
		}
		if boundary {
			sp.boundary = append(sp.boundary, li)
			sp.bndRanges = appendRange(sp.bndRanges, li)
		} else {
			sp.interior = append(sp.interior, li)
			sp.intRanges = appendRange(sp.intRanges, li)
		}
	}
}

// appendRange adds row li to ranges, flattened [lo, hi) pairs: it extends
// the last range when that ends at li.
func appendRange(ranges []int, li int) []int {
	if n := len(ranges); n > 0 && ranges[n-1] == li {
		ranges[n-1]++
		return ranges
	}
	return append(ranges, li, li+1)
}

// splitHolder returns the holder of lz's split, making it on first use.
func (lz *Localized) splitHolder() *rowSplit {
	lz.splitOnce.Do(func() {
		if lz.split == nil {
			lz.split = new(rowSplit)
		}
	})
	return lz.split
}

// NewOverlapOp builds the overlap view of an operator. The split is made
// once per localized pattern and shared by the views of every operator on
// it.
func NewOverlapOp(op *Op) *OverlapOp {
	sp := op.LZ.splitHolder()
	sp.once.Do(func() { sp.build(op.LZ) })
	return &OverlapOp{Op: op, Interior: sp.interior, Boundary: sp.boundary, interior: sp.intRanges, boundary: sp.bndRanges}
}

// mulRanges computes the rows of y = M·xExt in ranges, each range through
// the entry kernel on a CSR view of its rows: RowDot's bits. The
// mixed-precision operator reads the float32 value array instead,
// accumulating in float64 like sparse.CSR32.
func (o *OverlapOp) mulRanges(ranges []int, xExt, y []float64) {
	if o.f32 {
		m := o.LZ.M32()
		for t := 0; t+1 < len(ranges); t += 2 {
			lo, hi := ranges[t], ranges[t+1]
			v := sparse.CSR32{Rows: hi - lo, Cols: m.Cols, RowPtr: m.RowPtr[lo : hi+1], ColIdx: m.ColIdx, Val: m.Val}
			v.MulVecDot(nil, xExt, y[lo:hi], nil)
		}
		return
	}
	m := o.LZ.M
	for t := 0; t+1 < len(ranges); t += 2 {
		lo, hi := ranges[t], ranges[t+1]
		v := sparse.CSR{Rows: hi - lo, Cols: m.Cols, RowPtr: m.RowPtr[lo : hi+1], ColIdx: m.ColIdx, Val: m.Val}
		v.MulVecDot(nil, xExt, y[lo:hi], nil)
	}
}

// MulVecOverlapAsync computes y = A x in overlap order: the halo update is
// posted through the nonblocking primitives (Irecv before Isend), the
// interior rows are computed while the values are in flight, then the
// receives complete and the boundary rows finish. Results and metered
// traffic are identical to Op.MulVec; only the schedule differs. It is the
// product of A in the pipelined solver, and what a real-MPI port would
// execute verbatim.
func (o *OverlapOp) MulVecOverlapAsync(c *simmpi.Comm, x, y []float64, scratch *DistVec, fc *vecops.FlopCounter) {
	nl := o.LZ.NLocal()
	scratch.load(x)
	xExt := scratch.Ext
	h := o.Plan.StartExchange(c, xExt)
	o.mulRanges(o.interior, xExt, y)
	h.Complete(c, xExt, nl)
	o.mulRanges(o.boundary, xExt, y)
	fc.Add(2 * int64(o.LZ.M.NNZ()))
}

// InteriorNNZ returns the stored entries in interior rows — the work
// available to hide communication behind.
func (o *OverlapOp) InteriorNNZ() int {
	n := 0
	for t := 0; t+1 < len(o.interior); t += 2 {
		n += o.LZ.M.RowPtr[o.interior[t+1]] - o.LZ.M.RowPtr[o.interior[t]]
	}
	return n
}
