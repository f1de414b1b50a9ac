package krylov

// Mixed-precision solves with FP64 iterative refinement. The inner CG loop
// runs against float32-valued operators — the FSAI factors (and the system
// matrix) store float32 values, products accumulate in float64, and halo
// exchanges travel at 4 bytes per value; an FP64 outer loop then recomputes
// the true residual r = b − A·x with the full-precision operator, solves the
// correction system A·d = r in mixed precision again, and updates x ← x + d.
// The iteration vectors are float64 throughout, so the inner loop's own
// recurrence residual keeps descending to the caller's tolerance even though
// the TRUE residual floors near the float32 representation limit. The inner
// tolerance is therefore adaptive: the first inner solve aims directly at the
// target, and each refinement afterwards only closes the gap the FP64
// recomputation still shows — typically one full-depth solve plus one short
// correction, so the total inner iteration count stays close to a pure FP64
// solve's. That, plus the outer loop's few full-width exchanges being a
// vanishing fraction of the hundreds of half-width inner iterations, is what
// the metered halo-byte-ratio tests pin (~0.5× of a pure FP64 solve).
//
// Every loop-control scalar of the outer loop (inner iteration counts,
// residual norms) is an Allreduce result, bitwise identical on all ranks,
// so the distributed variants stay collectively consistent with no extra
// communication beyond the residual recomputation itself.
//
// The outer loop is written once (refine), k wide like the CG recurrences,
// around "an inner solve of width k" it is handed as a function: the
// mixed-precision CG solves of DistCGRefined (width 1) and
// DistCGBatchRefined, or any other solver over narrowed operators.

import (
	"errors"
	"fmt"
	"math"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/vecops"
)

// pipelinedInnerReplaceEvery is the residual-replacement period forced on
// inner pipelined solves. The pipelined recurrences drift far faster under
// the float32 operator than the classic ones: past roughly five decades the
// recurrence residual decouples from the true one, and further iterations
// degrade the iterate until the drifted curvature breaks down. Periodically
// recomputing the residual against the (float32) operator keeps the
// recurrence honest, so one inner solve can aim as deep as the classic loop
// instead of restarting refinements against a drifting estimate.
const pipelinedInnerReplaceEvery = 25

// refineSafety is the margin each inner solve aims below its nominal
// requirement: the true FP64 residual exceeds the inner loop's recurrence
// residual by the float32 operator drift, so demanding an extra factor of
// two keeps the recomputed residual under the line the recurrence crossed.
// It is also the shallowest reduction a correction solve may target — every
// refinement must at least halve the residual or the stall guard fires.
const refineSafety = 0.5

// maxRefinements bounds the outer loop; with at least ~2 orders of magnitude
// per step any solve that needs this many refinements is stalled at the
// representation floor, not converging.
const maxRefinements = 20

// refineStallFactor: a refinement that shrinks the residual by less than
// this factor has hit the float32 floor — further refinements would re-run
// full inner solves for no progress.
const refineStallFactor = 0.5

// innerOptions derives the inner solve's options: the adaptive tolerance for
// the current outer residual, the remaining iteration budget, telemetry off
// (the outer tracer records at refinement granularity).
func innerOptions(opt Options, budget int, relres float64) Options {
	in := opt
	in.Trace = false
	in.RecordResiduals = false
	in.Tol = innerTol(opt.Tol, relres)
	if in.Variant == CGPipelined && in.ResidualReplaceEvery == 0 {
		in.ResidualReplaceEvery = pipelinedInnerReplaceEvery
	}
	in.MaxIter = budget
	return in
}

// innerTol targets the remaining gap: with the outer residual at relres and
// the target at tol, the correction solve needs a relative reduction of
// tol/relres on its own right-hand side, deepened by refineSafety to absorb
// the float32 drift between the inner recurrence residual and the true one.
// The first solve (relres = 1) thus aims just under tol itself — when the
// drift floor is far below tol it converges in a single refinement — and a
// near-miss refinement runs only the handful of iterations its small gap
// needs, instead of a fixed deep restart.
func innerTol(tol, relres float64) float64 {
	t := refineSafety * tol / relres
	if t > refineSafety {
		t = refineSafety
	}
	return t
}

// SolveRefined solves A x = b in mixed precision with FP64 iterative
// refinement: the inner CG solves run over the float32 narrowing of A and of
// the split preconditioner's factors (nil m: unpreconditioned), the outer
// loop computes FP64 residuals with the full-precision A. x is overwritten;
// Stats.Refinements counts outer steps and Stats.Iterations the total inner
// iterations. Options.Tol/MaxIter apply to the outer residual and the total
// inner iteration budget respectively. It is DistCGRefined on a one-rank
// world.
func SolveRefined(a *sparse.CSR, b, x []float64, m *Split, opt Options, fc *vecops.FlopCounter) (Stats, error) {
	// The narrowed operators share the one-rank views, with their run
	// indexes and float32 values, over a plan of their own.
	narrow := func(op *distmat.Op) *distmat.Op {
		op = distmat.NewOpFromParts(op.LZ, &distmat.HaloPlan{})
		op.SetF32(true)
		return op
	}
	var inner DistPreconditioner
	if m != nil {
		inner = NewDistSplit(narrow(m.g), narrow(m.gt))
	}
	opt.Variant = CGClassic
	outer := distmat.LocalOp(a)
	return DistCGRefined(nil, outer, narrow(outer), b, x, inner, opt, fc)
}

// DistCGRefined solves A x = b distributed in mixed precision with FP64
// iterative refinement. aOuter is the full-precision operator used for the
// outer residual recomputation; aInner is the mixed-precision operator (same
// Localized view with the f32 kernel and half-width halo plan) the inner
// DistCG solves run against, under the variant chosen in opt. The
// preconditioner m should likewise be built over f32 operators. Every rank
// passes its local slices; all ranks receive identical Stats. A nil Comm is
// the one-rank world.
func DistCGRefined(c *simmpi.Comm, aOuter, aInner *distmat.Op, b, x []float64, m DistPreconditioner, opt Options, fc *vecops.FlopCounter) (Stats, error) {
	return scalarResult(refine(c, aOuter, b, x, 1, opt, fc, func(r, d []float64, in Options) (BatchStats, error) {
		return oneColumn(DistCG(c, aInner, r, d, m, in, fc))
	}))
}

// DistCGBatchRefined is DistCGRefined for k systems refined together, with
// the per-column freeze semantics of DistCGBatch (classic and fused inner
// solves only). BatchStats.Refinements counts outer steps; per-column
// Iterations accumulate inner iterations.
func DistCGBatchRefined(c *simmpi.Comm, aOuter, aInner *distmat.Op, b, x []float64, m DistPreconditioner, k int, opt Options, fc *vecops.FlopCounter) (BatchStats, error) {
	if err := checkBatchOptions(k, opt); err != nil {
		return BatchStats{}, err
	}
	return refine(c, aOuter, b, x, k, opt, fc, func(r, d []float64, in Options) (BatchStats, error) {
		return distCGWide(c, aInner, r, d, m, k, in, fc)
	})
}

// refine is the FP64 iterative-refinement loop, k wide: it solves
// A·x_c = b_c by repeatedly handing the true residual block r = b − A·x to
// inner — an approximate solve of A·d = r of width k, zero initial guess,
// to the tolerance and iteration budget of the Options it is given — and
// folding the correction in. a is the full-precision operator. Columns
// whose FP64 residual reaches Tol (or breaks down, or stalls at the inner
// solver's floor) stop being refined — their residual columns are zeroed so
// subsequent inner solves freeze them at once. An inner solve may fail to
// converge or break down and the refinement goes on; any other error it
// returns ends the solve. Options.Trace records at refinement granularity,
// at width 1.
func refine(c *simmpi.Comm, a *distmat.Op, b, x []float64, k int, opt Options, fc *vecops.FlopCounter,
	inner func(r, d []float64, opt Options) (BatchStats, error)) (BatchStats, error) {
	tr := newTracer(opt.Trace && k == 1, c)
	nl := a.LZ.NLocal()
	if len(b) != nl*k || len(x) != nl*k {
		panic(fmt.Sprintf("krylov: refinement local length %d/%d, want %d (k = %d)", len(b), len(x), nl*k, k))
	}
	opt = opt.withDefaults(globalLen(c, nl))
	r := make([]float64, nl*k)
	d := make([]float64, nl*k)
	scratch := distmat.NewBatchDistVec(a.LZ, k)
	copy(r, b)
	vecops.Fill(x, 0)

	bs := BatchStats{K: k, Cols: make([]Stats, k), Broken: make([]bool, k)}
	norm0 := make([]float64, k)
	tmp := make([]float64, k)
	done := make([]bool, k) // no further refinement for this column
	distmat.DotBatchDist(c, r, r, k, nil, tmp, fc)
	allDone := true
	for col := 0; col < k; col++ {
		norm0[col] = math.Sqrt(tmp[col])
		if norm0[col] == 0 {
			bs.Cols[col].Converged = true
			done[col] = true
		} else {
			bs.Cols[col].RelResidual = 1
			allDone = false
		}
	}
	tr.setup()

	for !allDone && bs.Refinements < maxRefinements {
		if canceled(c, opt.Ctx) {
			return conclude(bs, fc, tr, fmt.Errorf("%w during refinement %d: %v", ErrCanceled, bs.Refinements+1, opt.Ctx.Err()))
		}
		// budget and every residual below derive from Allreduce results, so
		// all ranks take the same branch at every step.
		budget := opt.MaxIter - bs.Iterations
		if budget <= 0 {
			break
		}
		// Zero finished columns' residuals: the inner solve then freezes
		// them at setup (zero RHS) and their corrections stay zero. The
		// shared inner tolerance must serve the column farthest from the
		// target: tol/relres is tightest for the largest relres, so the max
		// over the live columns gives the deepest requirement.
		maxRel := 0.0
		for col := 0; col < k; col++ {
			if done[col] {
				for i := col; i < len(r); i += k {
					r[i] = 0
				}
			} else if bs.Cols[col].RelResidual > maxRel {
				maxRel = bs.Cols[col].RelResidual
			}
		}
		vecops.Fill(d, 0)
		ibs, ierr := inner(r, d, innerOptions(opt, budget, maxRel))
		bs.Iterations += ibs.Iterations
		bs.Refinements++
		for col := 0; col < k; col++ {
			if !done[col] {
				bs.Cols[col].Iterations += ibs.Cols[col].Iterations
			}
		}
		// An inner solve that broke down near the float32 floor is
		// survivable: its partial correction is folded in and the column
		// stays live — the FP64 recomputation below decides whether it
		// converged, refines again, or, if the breakdown produced no
		// progress, is Broken for good.
		if ierr != nil && !errors.Is(ierr, ErrNoConvergence) && !errors.Is(ierr, ErrBreakdown) {
			tr.refine(bs.Refinements, ibs.Iterations, bs.Cols[0].RelResidual)
			return conclude(bs, fc, tr, fmt.Errorf("refinement %d inner solve: %w", bs.Refinements, ierr))
		}
		vecops.Axpy(1, d, x, fc)
		a.MulMat(c, x, r, k, nil, scratch, fc)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		fc.Add(int64(nl * k))
		distmat.DotBatchDist(c, r, r, k, nil, tmp, fc)
		allDone = true
		for col := 0; col < k; col++ {
			if done[col] {
				continue
			}
			st := &bs.Cols[col]
			prev := st.RelResidual
			st.RelResidual = math.Sqrt(tmp[col]) / norm0[col]
			done[col] = true
			switch {
			case nonfinite(tmp[col]):
				bs.Broken[col] = true
			case st.RelResidual <= opt.Tol:
				st.Converged = true
			case st.RelResidual >= prev*refineStallFactor:
				// The inner solver's floor for this column: no further
				// refinement can reach Tol.
				bs.Broken[col] = ibs.Broken[col]
			default:
				done[col], allDone = false, false
			}
		}
		tr.refine(bs.Refinements, ibs.Iterations, bs.Cols[0].RelResidual)
	}
	return conclude(bs, fc, tr, nil)
}
