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
	narrow := func(m *sparse.CSR) *distmat.Op {
		op := distmat.LocalOp(m)
		op.SetF32(true)
		return op
	}
	var inner DistPreconditioner
	if m != nil {
		inner = NewDistSplit(narrow(m.G), narrow(m.GT))
	}
	opt.Variant = CGClassic
	return DistCGRefined(nil, distmat.LocalOp(a), narrow(a), b, x, inner, opt, fc)
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
	tr := newTracer(opt.Trace, c)
	nl := aOuter.LZ.NLocal()
	opt = opt.withDefaults(globalLen(c, nl))
	if m == nil {
		m = DistIdentity{}
	}
	if len(b) != nl || len(x) != nl {
		panic(fmt.Sprintf("krylov: DistCGRefined local length %d/%d, want %d", len(b), len(x), nl))
	}
	r := make([]float64, nl)
	d := make([]float64, nl)
	scratch := distmat.NewDistVec(aOuter.LZ)
	copy(r, b)
	norm0 := distmat.Norm2(c, r, fc)
	if norm0 == 0 {
		vecops.Fill(x, 0)
		return finish(Stats{Converged: true}, fc, tr), nil
	}
	vecops.Fill(x, 0)
	tr.setup()

	st := Stats{RelResidual: 1}
	for st.Refinements < maxRefinements {
		if canceled(c, opt.Ctx) {
			return finish(st, fc, tr), fmt.Errorf("%w during refinement %d: %v", ErrCanceled, st.Refinements+1, opt.Ctx.Err())
		}
		// budget and every residual below derive from Allreduce results, so
		// all ranks take the same branch at every step.
		budget := opt.MaxIter - st.Iterations
		if budget <= 0 {
			break
		}
		vecops.Fill(d, 0)
		ist, ierr := DistCG(c, aInner, r, d, m, innerOptions(opt, budget, st.RelResidual), fc)
		st.Iterations += ist.Iterations
		st.Refinements++
		// Inner breakdown near the float32 floor is survivable: the partial
		// correction is folded in and the FP64 recomputation decides whether
		// to refine again. The breakdown verdict is itself an Allreduce-
		// derived scalar, so every rank takes this branch identically.
		innerBroke := errors.Is(ierr, ErrBreakdown)
		if ierr != nil && !errors.Is(ierr, ErrNoConvergence) && !innerBroke {
			tr.refine(st.Refinements, ist.Iterations, st.RelResidual)
			return finish(st, fc, tr), fmt.Errorf("refinement %d inner solve: %w", st.Refinements, ierr)
		}
		vecops.Axpy(1, d, x, fc)
		aOuter.MulVec(c, x, r, scratch, fc)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		fc.Add(int64(nl))
		prev := st.RelResidual
		rnorm := distmat.Norm2(c, r, fc)
		st.RelResidual = rnorm / norm0
		tr.refine(st.Refinements, ist.Iterations, st.RelResidual)
		if nonfinite(rnorm) {
			return finish(st, fc, tr), fmt.Errorf("%w at refinement %d (‖r‖ = %g)", ErrBreakdown, st.Refinements, rnorm)
		}
		if st.RelResidual <= opt.Tol {
			st.Converged = true
			return finish(st, fc, tr), nil
		}
		if st.RelResidual >= prev*refineStallFactor {
			if innerBroke {
				return finish(st, fc, tr), fmt.Errorf("%w at refinement %d (inner solve broke down, rel residual %.3e)",
					ErrBreakdown, st.Refinements, st.RelResidual)
			}
			break // float32 floor: no further refinement can reach Tol
		}
	}
	st = finish(st, fc, tr)
	return st, fmt.Errorf("%w: %d refinements, %d inner iterations, rel residual %.3e",
		ErrNoConvergence, st.Refinements, st.Iterations, st.RelResidual)
}

// DistCGBatchRefined is the batched counterpart of DistCGRefined: k systems
// refined together, with the per-column freeze semantics of DistCGBatch.
// Columns whose FP64 residual reaches Tol (or breaks down, or stalls at the
// float32 floor) stop being refined — their residual columns are zeroed so
// subsequent inner solves freeze them immediately. BatchStats.Refinements
// counts outer steps; per-column Iterations accumulate inner iterations.
func DistCGBatchRefined(c *simmpi.Comm, aOuter, aInner *distmat.Op, b, x []float64, m DistBatchPreconditioner, k int, opt Options, fc *vecops.FlopCounter) (BatchStats, error) {
	if err := checkBatchOptions(k, opt); err != nil {
		return BatchStats{}, err
	}
	nl := aOuter.LZ.NLocal()
	opt = opt.withDefaults(globalLen(c, nl))
	if len(b) != nl*k || len(x) != nl*k {
		panic(fmt.Sprintf("krylov: DistCGBatchRefined local block length %d/%d, want %d (k=%d)", len(b), len(x), nl*k, k))
	}
	r := make([]float64, nl*k)
	d := make([]float64, nl*k)
	scratch := distmat.NewBatchDistVec(aOuter.LZ, k)
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
	if allDone {
		return batchResult(bs, 0, nil)
	}

	for bs.Refinements < maxRefinements {
		if canceled(c, opt.Ctx) {
			return batchResult(bs, bs.Iterations, opt.Ctx)
		}
		budget := opt.MaxIter - bs.Iterations
		if budget <= 0 {
			break
		}
		// Zero finished columns' residuals: the inner solve then freezes
		// them at setup (zero RHS) and their corrections stay zero.
		for col := 0; col < k; col++ {
			if done[col] {
				for i := 0; i < nl; i++ {
					r[i*k+col] = 0
				}
			}
		}
		// The shared inner tolerance must serve the column farthest from the
		// target: tol/relres is tightest for the largest relres, so the max
		// over the active columns gives the deepest requirement.
		maxRel := 0.0
		for col := 0; col < k; col++ {
			if !done[col] && bs.Cols[col].RelResidual > maxRel {
				maxRel = bs.Cols[col].RelResidual
			}
		}
		vecops.Fill(d, 0)
		ibs, ierr := DistCGBatch(c, aInner, r, d, m, k, innerOptions(opt, budget, maxRel), fc)
		bs.Iterations += ibs.Iterations
		bs.Refinements++
		// A column whose inner solve broke down near the float32 floor keeps
		// its partial correction and stays live: the FP64 recomputation below
		// decides whether it converged, refines again, or — if the breakdown
		// produced no progress — marks it Broken for good.
		innerBroke := make([]bool, k)
		for col := 0; col < k; col++ {
			if !done[col] {
				bs.Cols[col].Iterations += ibs.Cols[col].Iterations
				innerBroke[col] = ibs.Broken[col]
			}
		}
		if ierr != nil && errors.Is(ierr, ErrCanceled) {
			return bs, fmt.Errorf("refinement %d inner solve: %w", bs.Refinements, ierr)
		}
		vecops.Axpy(1, d, x, fc)
		aOuter.MulMat(c, x, r, k, nil, scratch, fc)
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
			if nonfinite(tmp[col]) {
				bs.Broken[col] = true
				done[col] = true
				continue
			}
			if st.RelResidual <= opt.Tol {
				st.Converged = true
				done[col] = true
				continue
			}
			if st.RelResidual >= prev*refineStallFactor {
				if innerBroke[col] {
					bs.Broken[col] = true
				}
				done[col] = true // float32 floor for this column
				continue
			}
			allDone = false
		}
		if allDone {
			break
		}
	}
	return batchResult(bs, 0, nil)
}
