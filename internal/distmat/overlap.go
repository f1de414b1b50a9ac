package distmat

import (
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
}

// NewOverlapOp builds the overlap view of an operator.
func NewOverlapOp(op *Op) *OverlapOp {
	nl := op.LZ.NLocal()
	o := &OverlapOp{Op: op}
	for li := 0; li < op.LZ.M.Rows; li++ {
		cols, _ := op.LZ.M.Row(li)
		boundary := false
		for _, c := range cols {
			if c >= nl {
				boundary = true
				break
			}
		}
		if boundary {
			o.Boundary = append(o.Boundary, li)
		} else {
			o.Interior = append(o.Interior, li)
		}
	}
	return o
}

// mulRows computes the selected rows of y = M·xExt. The mixed-precision
// operator reads the float32 value array instead, accumulating in float64
// like sparse.CSR32.
func (o *OverlapOp) mulRows(rows []int, xExt, y []float64) {
	if o.f32 {
		m := o.LZ.M32()
		for _, li := range rows {
			cs, vs := m.Row(li)
			y[li] = sparse.RowDot(cs, vs, xExt)
		}
		return
	}
	m := o.LZ.M
	for _, li := range rows {
		cs, vs := m.Row(li)
		y[li] = sparse.RowDot(cs, vs, xExt)
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
	o.mulRows(o.Interior, xExt, y)
	h.Complete(c, xExt, nl)
	o.mulRows(o.Boundary, xExt, y)
	fc.Add(2 * int64(o.LZ.M.NNZ()))
}

// InteriorNNZ returns the stored entries in interior rows — the work
// available to hide communication behind.
func (o *OverlapOp) InteriorNNZ() int {
	n := 0
	for _, li := range o.Interior {
		n += o.LZ.M.RowNNZ(li)
	}
	return n
}
