package distmat

// Batched (multi-RHS) variants of the distributed vector and SpMV kernels.
// A batch of k distributed vectors stores each rank's slice row-major
// interleaved (x[i*k+c] = component i of column c), matching
// sparse.CSR.MulMat. The communication win is structural: one halo update
// for the whole block sends ONE message per neighbour carrying all k
// columns' values — per-RHS message count drops exactly k× versus k scalar
// exchanges, while the byte volume stays the same (k× the scalar payload,
// coalesced). The metered batch tests pin both facts on the sim and tcp
// backends.

import (
	"fmt"

	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/vecops"
)

// MulMat computes the local block of Y = A·X for k interleaved columns,
// performing one k-wide halo update (one message per neighbour regardless
// of k). x and y hold the rank's interleaved local blocks (length
// NLocal·k); scratch must come from NewBatchDistVec(op.LZ, k). Only the
// active columns of y are computed (nil cols = all); the halo exchange
// always carries all k columns so the message schedule never depends on the
// mask. Column c of the result is bit-identical to the scalar Op.MulVec on
// column c — and a 1-wide block is a plain vector, so at k = 1 the product
// IS the scalar one: MulVec, or the send-then-compute MulVecOverlap when
// the operator carries the overlap view (same bits, same metered traffic).
// There is no k-wide overlap schedule; wider blocks always block. Like
// MulVec, a wider product walks the pattern's column runs where the view has
// a run index, its entries otherwise — the same bits either way.
func (op *Op) MulMat(c *simmpi.Comm, x, y []float64, k int, cols []int, scratch *DistVec, fc *vecops.FlopCounter) {
	nl := op.LZ.NLocal()
	if len(x) != nl*k || len(y) != nl*k {
		panic(fmt.Sprintf("distmat: MulMat local length %d/%d, want %d (k=%d)", len(x), len(y), nl*k, k))
	}
	if scratch.NLocal != nl || scratch.K != k {
		panic(fmt.Sprintf("distmat: MulMat scratch %d×%d, want %d×%d", scratch.NLocal, scratch.K, nl, k))
	}
	if k == 1 && (cols == nil || len(cols) == 1) {
		if op.overlap != nil {
			op.overlap.MulVecOverlap(c, x, y, scratch, fc)
		} else {
			op.MulVec(c, x, y, scratch, fc)
		}
		return
	}
	if !op.Plan.idle() {
		scratch.load(x)
		op.Plan.ExchangeBatch(c, scratch.Ext, nl, k)
		x = scratch.Ext
	}
	lz := op.LZ
	if op.f32 {
		lz.M32().MulMatCols(lz.runs, x, y, k, cols)
	} else {
		lz.M.MulMatCols(lz.runs, x, y, k, cols)
	}
	nc := int64(k)
	if cols != nil {
		nc = int64(len(cols))
	}
	fc.Add(2 * int64(lz.M.NNZ()) * nc)
}

// MulMatDot is MulMat followed by DotBatchDist(c, w, y, k, cols, out, fc):
// the product, then out[c] = Σ_ranks w_cᵀy_c for the active columns and
// exact zeros for the masked ones, with those two calls' bits, flops and
// collective. A blocking 1-wide product needs no second sweep: its kernel
// adds wᵢyᵢ as it stores row i, from +0 in ascending i, which is
// vecops.Dot's order. Wider blocks and the overlap schedule, which computes
// the interior rows first, make the two calls. The classic CG loop takes
// d·q here with w = x = d, and DistSplit r·z with w = r.
func (op *Op) MulMatDot(c *simmpi.Comm, x, y, w []float64, k int, cols []int, scratch *DistVec, out []float64, fc *vecops.FlopCounter) {
	if k == 1 && cols == nil && op.overlap == nil {
		out[0] = op.mulVecDot(c, x, y, w, scratch, fc)
		copy(out[:1], SumAcross(c, out[:1]))
		return
	}
	op.MulMat(c, x, y, k, cols, scratch, fc)
	DotBatchDist(c, w, y, k, cols, out, fc)
}

// DotBatchDist reduces the per-column local dot products globally in ONE
// k-wide collective: out[c] = Σ_ranks x_cᵀy_c. Masked columns contribute
// exact zeros, so the collective is always k wide and the call count per
// iteration is 1 regardless of batch size or convergence state — the
// batched counterpart of k separate distmat.Dot calls (and exactly one
// collective where those cost k); at k = 1 it is Dot. A nil Comm is the
// one-rank world.
func DotBatchDist(c *simmpi.Comm, x, y []float64, k int, cols []int, out []float64, fc *vecops.FlopCounter) {
	for i := 0; i < k; i++ {
		out[i] = 0
	}
	vecops.DotBatch(x, y, k, cols, out, fc)
	copy(out[:k], SumAcross(c, out[:k]))
}
