package krylov

// The pipelined (Ghysels–Vanroose) Conjugate Gradient variant. The fused
// recurrence of fused.go already pays only one collective per iteration,
// but that collective is still blocking: every rank stalls in the Allreduce
// between the SpMV and the vector updates. Pipelining rearranges the
// recurrence once more so the reduction's operands are available one
// operator application early: the three scalars are posted as a nonblocking
// IallreduceSum, the next preconditioner apply m = M·w and SpMV n = A·m run
// while the reduction is in flight, and the wait happens only when α and β
// are actually needed. The latency of the collective hides behind the
// heaviest compute of the iteration. The price is two extra recurrence
// vectors on top of fused's (z ≈ A·M·s and q ≈ M·s, kept current by the
// 8-way update kernel) and one wasted preconditioner+SpMV application after
// the final iteration.
//
// The in-process simulated runtime serializes goroutines, so the overlap
// cannot show up in wall-clock time here; internal/archmodel's
// overlap-credit term converts the metered traffic into the modeled time a
// real network would see (DESIGN.md §4d).

import (
	"fmt"
	"math"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/vecops"
)

// DistCGPipelined solves A x = b with the pipelined preconditioned CG
// recurrence of Ghysels & Vanroose. Per iteration it performs exactly one
// collective — a nonblocking IallreduceSum(rᵀu, wᵀu, ‖r‖²) overlapped with
// the preconditioner apply and SpMV — with halo traffic byte-identical to
// the classic loop (asserted by the metered tests). The SpMV and halo
// exchanges run through the nonblocking Isend/Irecv schedule. In exact
// arithmetic the iterates equal classic PCG's; the deeper rearrangement
// rounds differently, so iteration counts may shift by ±2.
func DistCGPipelined(c *simmpi.Comm, op *distmat.Op, b, x []float64, m DistPreconditioner, opt Options, fc *vecops.FlopCounter) (Stats, error) {
	tr := newTracer(opt.Trace, c)
	nl := op.LZ.NLocal()
	opt = opt.withDefaults(globalLen(c, nl))
	if m == nil {
		m = DistIdentity{}
	}
	if len(b) != nl || len(x) != nl {
		panic(fmt.Sprintf("krylov: DistCGPipelined local length %d/%d, want %d", len(b), len(x), nl))
	}
	ws := opt.Work
	if ws == nil {
		ws = &Workspace{}
	}
	r, u, w, p, s, z, q, mv, nv := ws.take9(nl)
	scratch := haloScratch(&ws.scratch, op.LZ, 1)
	ov := op.EnsureOverlap()

	copy(r, b)
	vecops.Fill(p, 0)
	vecops.Fill(s, 0)
	vecops.Fill(z, 0)
	vecops.Fill(q, 0)
	m.ApplyBatch(c, r, u, 1, nil, fc)
	ov.MulVecOverlapAsync(c, u, w, scratch, fc)
	tr.setup()

	var norm0, gamma, alpha, beta float64
	st := Stats{}
	for it := 0; ; it++ {
		if canceled(c, opt.Ctx) {
			return finish(st, fc, tr), fmt.Errorf("%w at iteration %d", ErrCanceled, it)
		}
		ruL, wuL, rrL := vecops.Dot3(r, u, w, fc)
		// The single collective of the iteration, posted nonblocking.
		req := c.IallreduceSum(ruL, wuL, rrL)
		// Overlap window: the preconditioner apply and the SpMV execute
		// while the reduction is in flight. They only read w and write the
		// scratch vectors m and n, so they commute with the wait.
		m.ApplyBatch(c, w, mv, 1, nil, fc)
		ov.MulVecOverlapAsync(c, mv, nv, scratch, fc)
		g, err := req.Wait()
		if err != nil {
			return finish(st, fc, tr), err
		}
		gammaNew, delta, rr := g[0], g[1], g[2]
		// upAlpha/upBeta are the scalars of the update that produced this
		// pass's residual (computed in the previous pass), reported in the
		// iteration's trace record.
		upAlpha, upBeta := alpha, beta
		if it == 0 {
			if rr == 0 {
				vecops.Fill(x, 0)
				return finish(Stats{Converged: true}, fc, tr), nil
			}
			norm0 = math.Sqrt(rr)
			if badCurv(gammaNew) || badCurv(delta) {
				return finish(Stats{}, fc, tr), fmt.Errorf("%w at DistCGPipelined setup (rᵀMr = %g, uᵀAu = %g); matrix or preconditioner not SPD?", ErrBreakdown, gammaNew, delta)
			}
			alpha = gammaNew / delta
			beta = 0
		} else {
			if nonfinite(rr) || nonfinite(gammaNew) {
				// Allreduce results are rank-identical: collective verdict.
				return finish(st, fc, tr), fmt.Errorf("%w at iteration %d (‖r‖² = %g, rᵀMr = %g)", ErrBreakdown, it, rr, gammaNew)
			}
			// rr is ‖r‖² after `it` updates — the same quantity the classic
			// loop checks after its it-th update, so counts are comparable.
			st.Iterations = it
			st.RelResidual = math.Sqrt(rr) / norm0
			if opt.RecordResiduals {
				st.Residuals = append(st.Residuals, st.RelResidual)
			}
			if st.RelResidual <= opt.Tol {
				st.Converged = true
				tr.record(it, st.RelResidual, upAlpha, upBeta)
				return finish(st, fc, tr), nil
			}
			if it >= opt.MaxIter {
				tr.record(it, st.RelResidual, upAlpha, upBeta)
				break
			}
			beta = gammaNew / gamma
			denom := delta - beta*gammaNew/alpha
			if badCurv(denom) {
				return finish(st, fc, tr), fmt.Errorf("%w at iteration %d (recurrence denominator %g); matrix not SPD?", ErrBreakdown, it, denom)
			}
			alpha = gammaNew / denom
		}
		gamma = gammaNew
		vecops.PipelinedCGUpdate(alpha, beta, nv, mv, w, u, z, q, s, p, x, r, fc)
		if k := opt.ResidualReplaceEvery; k > 0 && (it+1)%k == 0 {
			// Periodic residual replacement: recompute the true residual
			// r = b − A·x and rebuild the recurrence vectors that depend on
			// it (u = M·r, w = A·u) plus the search-direction pair
			// (s = A·p, q = M·s, z = A·q), which the recursive update has
			// been approximating. Four extra halo exchanges and two
			// preconditioner applications, zero extra collectives; `it` is
			// globally synchronized, so every rank replaces on the same
			// iterations and the solve stays deterministic. mv/nv are free
			// here — the next pass overwrites both.
			ov.MulVecOverlapAsync(c, x, nv, scratch, fc)
			copy(r, b)
			vecops.Axpy(-1, nv, r, fc)
			m.ApplyBatch(c, r, u, 1, nil, fc)
			ov.MulVecOverlapAsync(c, u, w, scratch, fc)
			ov.MulVecOverlapAsync(c, p, s, scratch, fc)
			m.ApplyBatch(c, s, q, 1, nil, fc)
			ov.MulVecOverlapAsync(c, q, z, scratch, fc)
		}
		if it > 0 {
			// Close the pass: the record's comm delta spans this pass's
			// reduction post, overlap-window SpMV and any replacement
			// traffic, so per-iteration deltas sum exactly to run totals.
			tr.record(it, st.RelResidual, upAlpha, upBeta)
		}
	}
	st = finish(st, fc, tr)
	return st, fmt.Errorf("%w: %d iterations, rel residual %.3e", ErrNoConvergence, st.Iterations, st.RelResidual)
}
