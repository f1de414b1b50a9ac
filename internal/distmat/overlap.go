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

// MulVecOverlap computes y = A x in overlap order: sends are posted first,
// interior rows are computed, then receives complete and boundary rows
// finish. Results are identical to Op.MulVec; only the schedule differs.
func (o *OverlapOp) MulVecOverlap(c *simmpi.Comm, x, y []float64, scratch *DistVec, fc *vecops.FlopCounter) {
	nl := o.LZ.NLocal()
	copy(scratch.Ext[:nl], x)
	// Post sends (the halo values leave now).
	o.Plan.PostSends(c, scratch.Ext)
	// Interior rows: no halo dependence.
	o.mulRows(o.Interior, scratch.Ext, y)
	// Complete receives.
	o.Plan.CompleteRecvs(c, scratch.Ext, nl)
	// Boundary rows.
	o.mulRows(o.Boundary, scratch.Ext, y)
	fc.Add(2 * int64(o.LZ.M.NNZ()))
}

// MulVecOverlapAsync computes y = A x like MulVecOverlap but drives the
// halo update through the nonblocking primitives (Irecv posted before
// Isend, completion deferred until boundary rows need the values). Results
// and metered traffic are identical to MulVecOverlap; only the posting
// mechanism differs — this is the schedule the pipelined solver uses, and
// the one a real-MPI port would execute verbatim.
func (o *OverlapOp) MulVecOverlapAsync(c *simmpi.Comm, x, y []float64, scratch *DistVec, fc *vecops.FlopCounter) {
	nl := o.LZ.NLocal()
	copy(scratch.Ext[:nl], x)
	h := o.Plan.StartExchange(c, scratch.Ext)
	o.mulRows(o.Interior, scratch.Ext, y)
	h.Complete(c, scratch.Ext, nl)
	o.mulRows(o.Boundary, scratch.Ext, y)
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
