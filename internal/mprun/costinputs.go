package mprun

import (
	"math"

	"fsaicomm/internal/archmodel"
	"fsaicomm/internal/cache"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/krylov"
)

// IterCostInputs holds one rank's per-iteration cost-model inputs for a
// distributed CG solve with the split FSAI preconditioner: the flat
// (fully-exposed) rank cost, the overlap-credit split matching the CG
// variant's schedule, and the cost of one preconditioner application alone,
// which the paper's GFLOP/s figures and miss histograms read.
type IterCostInputs struct {
	Rank    archmodel.RankCost
	Overlap archmodel.OverlapCost
	Precond archmodel.RankCost
}

// TracedMisses is the cache-simulator half of the cost inputs: the misses on
// x of one product with A and of one preconditioner application, for one
// rank under one architecture profile. It depends on the operators' sparsity
// and the profile's cache only — not on the CG variant, the precision, the
// topology or the right-hand side — so whoever keeps the operators may keep
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
	return TracedMisses{A: ci.Rank.CacheMisses - ci.Precond.CacheMisses, Precond: ci.Precond.CacheMisses}
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

// reductionsFor is the global-collective count per CG iteration of a
// variant, an input to the message cost model.
func reductionsFor(variant krylov.CGVariant) int64 {
	switch variant {
	case krylov.CGFused, krylov.CGPipelined:
		return 1
	default:
		return 3
	}
}

// overlapCostFor splits one rank's per-iteration cost the way a variant's
// schedule executes it, for archmodel's overlap-credit model. Every variant
// carries the same two named windows — "halo" and "reduction" — so the
// per-phase reports are comparable across variants; what changes is the
// hiding compute. The classic and fused loops block at every product, so
// they hide nothing (both windows fully exposed). The pipelined loop runs
// A's product in the send-then-compute schedule, so its halo window hides
// behind A's interior rows (aIntNNZ of them) alone, and it posts its single
// reduction before the preconditioner apply and A's product, so the
// reduction hides behind the rest of the iteration's products — a disjoint
// compute window, so no flop is credited twice.
func overlapCostFor(variant krylov.CGVariant, rc archmodel.RankCost, aIntNNZ, totNNZ, logP int64) archmodel.OverlapCost {
	// Reductions are log₂-tree traffic between processes picked across the
	// whole machine, so they are priced at the inter-node level; the halo
	// window carries both levels of the exchange (all of the rank's
	// intra-node traffic is halo traffic), so a node-aware plan's cheap
	// up/down legs are credited against the same interior-compute window the
	// expensive inter-node leg hides behind.
	red := archmodel.RankCost{CommMsgs: reductionsFor(variant) * logP, CommBytes: 24 * logP}
	halo := archmodel.RankCost{
		CommMsgs: rc.CommMsgs - red.CommMsgs, CommBytes: rc.CommBytes,
		IntraCommMsgs: rc.IntraCommMsgs, IntraCommBytes: rc.IntraCommBytes,
	}
	var haloHide, redHide archmodel.RankCost
	if variant == krylov.CGPipelined {
		rest := totNNZ - aIntNNZ
		haloHide = archmodel.RankCost{Flops: 2 * aIntNNZ, StreamBytes: 12 * aIntNNZ}
		redHide = archmodel.RankCost{Flops: 2 * rest, StreamBytes: 12 * rest}
	}
	return archmodel.OverlapCost{
		Compute: archmodel.RankCost{Flops: rc.Flops, StreamBytes: rc.StreamBytes, CacheMisses: rc.CacheMisses},
		Windows: []archmodel.CommWindow{
			{Name: "halo", Comm: halo, Hide: haloHide},
			{Name: "reduction", Comm: red, Hide: redHide},
		},
	}
}

// assembleIterCost builds one rank's per-iteration cost-model inputs from
// the three distributed operators of a solve (A, G, Gᵀ) and their traced
// misses. nl is the rank's local row count, ranks the world size. Every CG
// rank job assembles its cost here, for the paper's tables and the facade's
// modeled solve time alike, so every modeled number uses one set of
// constants: matrix entries stream 12 B each (8 B value + 4 B index), the CG
// vector kernels stream roughly 10 vector reads/writes, and reductions cost
// log₂-tree messages.
func assembleIterCost(miss TracedMisses, aOp, gOp, gtOp *distmat.Op, nl, ranks int, variant krylov.CGVariant) IterCostInputs {
	logP := int64(math.Ceil(math.Log2(float64(ranks + 1))))
	totNNZ := int64(aOp.LZ.M.NNZ() + gOp.LZ.M.NNZ() + gtOp.LZ.M.NNZ())
	// Each operator's halo traffic is whatever ONE exchange under the plan's
	// current routing charges this rank's meter, split by topology level:
	// under a flat plan all of it is inter-node with the historical per-peer
	// counts; under node-aware routing the inter level collapses to one
	// message per peer node while the up/down legs land on the cheap intra
	// level. Reductions are log₂-tree inter-node messages as before.
	var intraMsgs, intraBytes, interMsgs, interBytes int64
	for _, plan := range []*distmat.HaloPlan{aOp.Plan, gOp.Plan, gtOp.Plan} {
		im, ib, xm, xb := plan.ExchangeCounts(1)
		intraMsgs += im
		intraBytes += ib
		interMsgs += xm
		interBytes += xb
	}
	out := IterCostInputs{
		Rank: archmodel.RankCost{
			Flops:          2*totNNZ + 12*int64(nl),
			StreamBytes:    12*totNNZ + 80*int64(nl),
			CacheMisses:    miss.A + miss.Precond,
			CommBytes:      interBytes,
			CommMsgs:       interMsgs + reductionsFor(variant)*logP,
			IntraCommBytes: intraBytes,
			IntraCommMsgs:  intraMsgs,
		},
		Precond: precondCost(miss.Precond, nl, gOp, gtOp),
	}
	// Only pipelined CG's windows carry hiding compute, and only its A
	// product is split into interior and boundary rows: the other loops
	// never need the overlap view.
	var aIntNNZ int64
	if variant == krylov.CGPipelined {
		aIntNNZ = int64(aOp.EnsureOverlap().InteriorNNZ())
	}
	out.Overlap = overlapCostFor(variant, out.Rank, aIntNNZ, totNNZ, logP)
	return out
}

// assembleSPAIGMRESIterCost builds one rank's per-iteration cost-model
// inputs for the SPAI-preconditioned restarted GMRES(m) solve. Each inner
// iteration streams two operators (A and the explicit inverse M, both in the
// blocking schedule — GMRES has no overlapped variant) and runs the modified
// Gram–Schmidt dot ladder: iteration j of a cycle costs j+1 dots plus one
// norm, so averaged over a full cycle the reduction count per iteration is
// (restart+3)/2, rounded up. The windows carry no hiding compute, matching
// the classic CG pricing.
func assembleSPAIGMRESIterCost(miss TracedMisses, aOp, mOp *distmat.Op, nl, ranks, restart int) IterCostInputs {
	if restart < 1 {
		restart = 30 // krylov's GMRES default cycle length
	}
	logP := int64(math.Ceil(math.Log2(float64(ranks + 1))))
	totNNZ := int64(aOp.LZ.M.NNZ() + mOp.LZ.M.NNZ())
	reductions := int64((restart + 3 + 1) / 2)
	var intraMsgs, intraBytes, interMsgs, interBytes int64
	for _, plan := range []*distmat.HaloPlan{aOp.Plan, mOp.Plan} {
		im, ib, xm, xb := plan.ExchangeCounts(1)
		intraMsgs += im
		intraBytes += ib
		interMsgs += xm
		interBytes += xb
	}
	// MGS touches ≈(restart+1)/2 basis vectors per iteration on average, on
	// top of the SpMV vector traffic — folded into the stream-byte term the
	// same way CG's ~10 vector sweeps are.
	vecSweeps := int64(10 + (restart+1)/2)
	rc := archmodel.RankCost{
		Flops:          2*totNNZ + 4*int64(nl)*int64(restart+1)/2,
		StreamBytes:    12*totNNZ + 8*vecSweeps*int64(nl),
		CacheMisses:    miss.A + miss.Precond,
		CommBytes:      interBytes,
		CommMsgs:       interMsgs + reductions*logP,
		IntraCommBytes: intraBytes,
		IntraCommMsgs:  intraMsgs,
	}
	red := archmodel.RankCost{CommMsgs: reductions * logP, CommBytes: 24 * logP * reductions / 2}
	halo := archmodel.RankCost{
		CommMsgs: rc.CommMsgs - red.CommMsgs, CommBytes: rc.CommBytes,
		IntraCommMsgs: rc.IntraCommMsgs, IntraCommBytes: rc.IntraCommBytes,
	}
	return IterCostInputs{
		Rank: rc,
		Overlap: archmodel.OverlapCost{
			Compute: archmodel.RankCost{Flops: rc.Flops, StreamBytes: rc.StreamBytes, CacheMisses: rc.CacheMisses},
			Windows: []archmodel.CommWindow{
				{Name: "halo", Comm: halo},
				{Name: "reduction", Comm: red},
			},
		},
		Precond: precondCost(miss.Precond, nl, mOp),
	}
}

// ModeledSolveTime converts per-rank cost inputs, which carry the CG
// variant's windows, into the modeled solve time under the overlap-credit
// model; the classic loop's windows simply carry no hiding compute, so its
// time equals the fully-exposed α–β model.
func ModeledSolveTime(arch archmodel.Profile, iters int, costs []IterCostInputs) float64 {
	perRank := make([]archmodel.OverlapCost, len(costs))
	for i, ci := range costs {
		perRank[i] = ci.Overlap
	}
	return arch.SolveTimeOverlapped(iters, perRank)
}

// ModeledPhases returns the per-window breakdown of ModeledSolveTime for
// the same inputs: the worst rank's per-iteration OverlapReport scaled by
// the iteration count. The report's per-iteration terms sum exactly (same
// accumulation order) and TotalSec equals ModeledSolveTime bit-for-bit, so
// the printed phases tables reconcile with the scalar modeled time.
func ModeledPhases(arch archmodel.Profile, iters int, costs []IterCostInputs) archmodel.OverlapReport {
	var worst archmodel.OverlapCost
	worstT := 0.0
	for _, ci := range costs {
		if t := arch.OverlapTime(ci.Overlap); t > worstT {
			worstT = t
			worst = ci.Overlap
		}
	}
	if worstT == 0 {
		return archmodel.OverlapReport{}
	}
	return arch.OverlapReport(worst).Scale(float64(iters))
}
