package mprun

import (
	"math"

	"fsaicomm/internal/archmodel"
	"fsaicomm/internal/cache"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/krylov"
)

// IterCostInputs holds one rank's per-iteration cost-model inputs for a
// distributed Krylov solve: the iteration's cost split into compute and the
// communication windows of the loop's schedule, and the cost of one
// preconditioner application alone, which the paper's GFLOP/s figures and
// miss histograms read.
type IterCostInputs struct {
	Overlap archmodel.OverlapCost
	Precond archmodel.RankCost
}

// TracedMisses is the cache-simulator half of the cost inputs: the misses on
// x of one product with A and of one preconditioner application, for one
// rank under one architecture profile. It depends on the operators' sparsity
// and the profile's cache only — not on the CG variant, the precision or the
// right-hand side — so whoever keeps the operators may keep
// it beside them. Tracing walks every stored entry through the LRU
// simulator; everything else in the assembly is counting.
type TracedMisses struct {
	A, Precond int64
}

// traceMisses runs the simulator over A and the factor pair G, Gᵀ.
func traceMisses(arch archmodel.Profile, aOp, gOp, gtOp *distmat.Op) TracedMisses {
	sim := arch.NewProcessCache()
	return TracedMisses{
		A:       cache.TraceSpMVOnX(aOp.LZ.M, sim),
		Precond: cache.TracePrecondProduct(gOp.LZ.M, gtOp.LZ.M, sim),
	}
}

// traceSPAIMisses runs the simulator over A and the explicit inverse M.
func traceSPAIMisses(arch archmodel.Profile, aOp, mOp *distmat.Op) TracedMisses {
	sim := arch.NewProcessCache()
	return TracedMisses{
		A:       cache.TraceSpMVOnX(aOp.LZ.M, sim),
		Precond: cache.TraceSpMVOnX(mOp.LZ.M, sim),
	}
}

// Misses recovers the traced half from assembled inputs.
func (ci IterCostInputs) Misses() TracedMisses {
	return TracedMisses{A: ci.Overlap.Compute.CacheMisses - ci.Precond.CacheMisses, Precond: ci.Precond.CacheMisses}
}

// precondCost is one preconditioner application on a rank of nl rows — a
// product with each of ops, the factor pair or the explicit inverse — with
// its traced misses: two flops and 12 streamed bytes per entry plus 24 per
// row, and one halo update per operator.
func precondCost(misses int64, nl int, ops ...*distmat.Op) archmodel.RankCost {
	rc := archmodel.RankCost{StreamBytes: 24 * int64(nl), CacheMisses: misses}
	for _, op := range ops {
		n := int64(op.LZ.M.NNZ())
		rc.Flops += 2 * n
		rc.StreamBytes += 12 * n
		rc.CommBytes += int64(8 * op.Plan.SendCount())
		rc.CommMsgs += int64(len(op.Plan.SendPeerIDs()))
	}
	return rc
}

// loopShape is what one iteration of a Krylov loop adds to its operators'
// products in the cost model: the global reductions, each a log₂ tree of
// messages, the bytes they move per tree level, the vector
// kernels' flops and their 8-byte sweeps per local row.
type loopShape struct {
	reductions, redBytes int64
	rowFlops, sweeps     int64
}

// cgLoop is the shape of a CG iteration: three reductions in the classic
// loop, one in the fused and pipelined loops, and about ten vector sweeps.
func cgLoop(variant krylov.CGVariant) loopShape {
	sh := loopShape{reductions: 3, redBytes: 24, rowFlops: 12, sweeps: 10}
	if variant == krylov.CGFused || variant == krylov.CGPipelined {
		sh.reductions = 1
	}
	return sh
}

// gmresLoop is the shape of a restarted GMRES(m) iteration. Its modified
// Gram–Schmidt dot ladder costs j+1 dots plus one norm at iteration j of a
// cycle, so averaged over a full cycle the reduction count per iteration is
// (restart+3)/2, rounded up, and MGS touches ≈(restart+1)/2 basis vectors
// per iteration on top of the products' vector traffic. 4·(restart+1) is
// even, so the flops per row times nl are 4·nl·(restart+1)/2 exactly.
func gmresLoop(restart int) loopShape {
	if restart < 1 {
		restart = 30 // krylov's GMRES default cycle length
	}
	red := int64((restart + 3 + 1) / 2)
	return loopShape{
		reductions: red,
		redBytes:   24 * red / 2,
		rowFlops:   4 * int64(restart+1) / 2,
		sweeps:     int64(10 + (restart+1)/2),
	}
}

// assembleIterCost builds one rank's per-iteration cost-model inputs from
// the distributed operators of a solve — A first, then the preconditioner's
// (G and Gᵀ, or SPAI's M) — their traced misses and the loop's shape. nl is
// the rank's local row count, ranks the world size. Every rank job assembles
// its cost here, for the paper's tables and the facade's modeled solve time
// alike, so every modeled number uses one set of constants: matrix entries
// stream 12 B each (8 B value + 4 B index), vectors 8 B per row per sweep,
// and reductions cost log₂-tree messages.
//
// Every loop carries the same two named windows — "halo" and "reduction" —
// so the per-phase reports are comparable across loops. Every product and
// every reduction blocks, so each window is waited out in full.
func assembleIterCost(miss TracedMisses, sh loopShape, nl, ranks int, ops ...*distmat.Op) IterCostInputs {
	logP := int64(math.Ceil(math.Log2(float64(ranks + 1))))
	// Each operator's halo traffic is what ONE exchange under its plan
	// charges this rank's meter. Reductions are log₂ trees across the whole
	// machine.
	var totNNZ int64
	var halo archmodel.RankCost
	for _, op := range ops {
		totNNZ += int64(op.LZ.M.NNZ())
		m, b := op.Plan.ExchangeCounts(1)
		halo.CommMsgs += m
		halo.CommBytes += b
	}
	red := archmodel.RankCost{CommMsgs: sh.reductions * logP, CommBytes: sh.redBytes * logP}
	return IterCostInputs{
		Overlap: archmodel.OverlapCost{
			Compute: archmodel.RankCost{
				Flops:       2*totNNZ + sh.rowFlops*int64(nl),
				StreamBytes: 12*totNNZ + 8*sh.sweeps*int64(nl),
				CacheMisses: miss.A + miss.Precond,
			},
			Windows: []archmodel.CommWindow{
				{Name: "halo", Comm: halo},
				{Name: "reduction", Comm: red},
			},
		},
		Precond: precondCost(miss.Precond, nl, ops[1:]...),
	}
}

// ModeledPhases is the modeled solve: the per-iteration report of the rank
// with the largest TotalSec — the reductions synchronize the ranks every
// iteration, so the slowest governs — scaled by the iteration count. Its
// TotalSec is the modeled solve time.
func ModeledPhases(arch archmodel.Profile, iters int, costs []IterCostInputs) archmodel.OverlapReport {
	var worst archmodel.OverlapReport
	for _, ci := range costs {
		if rep := arch.OverlapReport(ci.Overlap); rep.TotalSec > worst.TotalSec {
			worst = rep
		}
	}
	if worst.TotalSec == 0 {
		return archmodel.OverlapReport{}
	}
	return worst.Scale(float64(iters))
}
