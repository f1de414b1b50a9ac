package krylov

// The fused-reduction (Chronopoulos–Gear) Conjugate Gradient variant. The
// classic PCG loop performs three global reductions per iteration — dᵀq,
// ‖r‖² and rᵀz — each a separate latency-bound Allreduce. Rearranging the
// recurrence lets all three scalars of an iteration be computed back to
// back and reduced in a single variadic AllreduceSum, cutting the
// collective count per iteration from 3 to 1 while leaving the Krylov
// space — and therefore the iteration count, up to floating-point rounding
// — unchanged. The SpMV is driven through the interior/boundary overlap
// schedule so halo sends are in flight while interior rows are computed,
// and the vector updates run as fused one-pass kernels (vecops.Dot2,
// vecops.FusedCGUpdate) so each iteration streams every vector once.

import (
	"fmt"
	"math"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/vecops"
)

// CGVariant selects the communication structure of the distributed CG loop.
type CGVariant int

const (
	// CGClassic is the textbook PCG loop: blocking SpMV and three global
	// reductions per iteration. The default, and the reference the other
	// variants are cross-checked against.
	CGClassic CGVariant = iota
	// CGClassicOverlap keeps the classic recurrence but drives the SpMV
	// through the interior/boundary overlap schedule (halo sends posted
	// before interior rows are computed). Bit-identical results to
	// CGClassic; only the communication schedule differs.
	CGClassicOverlap
	// CGFused is the Chronopoulos–Gear fused-reduction recurrence: one
	// Allreduce of three scalars per iteration, overlapped SpMV and fused
	// one-pass vector kernels. Same Krylov space as CGClassic; iteration
	// counts may differ by ±1 from rounding (see DESIGN.md).
	CGFused
	// CGPipelined is the Ghysels–Vanroose pipelined recurrence: the single
	// reduction of the fused loop becomes a nonblocking IallreduceSum whose
	// flight time is covered by the next preconditioner apply and SpMV, so
	// no rank ever idles in a collective. Same Krylov space as CGClassic;
	// iteration counts may differ by ±2 from the deeper scalar recurrence
	// rearrangement (see DESIGN.md §4d).
	CGPipelined
)

// String returns the flag spelling of the variant.
func (v CGVariant) String() string {
	switch v {
	case CGClassic:
		return "classic"
	case CGClassicOverlap:
		return "classic-overlap"
	case CGFused:
		return "fused"
	case CGPipelined:
		return "pipelined"
	default:
		return fmt.Sprintf("CGVariant(%d)", int(v))
	}
}

// ParseCGVariant parses the -cg flag spellings: "classic",
// "classic-overlap", "fused", "pipelined". The empty string is CGClassic.
func ParseCGVariant(s string) (CGVariant, error) {
	switch s {
	case "", "classic":
		return CGClassic, nil
	case "classic-overlap", "overlap":
		return CGClassicOverlap, nil
	case "fused":
		return CGFused, nil
	case "pipelined":
		return CGPipelined, nil
	default:
		return CGClassic, fmt.Errorf("krylov: unknown CG variant %q (want classic, classic-overlap, fused or pipelined)", s)
	}
}

// Workspace holds a solver's iteration vectors so repeated solves reuse
// them instead of reallocating: the experiment sweeps call the solver once
// per matrix × pattern × ablation cell, and with a shared Workspace the
// steady state allocates nothing per solve. The zero value is ready to
// use; buffers grow on demand and are reused when sizes match. A Workspace
// serves one solve at a time — in distributed runs each rank needs its own
// (pass it via Options.Work when constructing per-rank Options).
type Workspace struct {
	r, z, d, q, s []float64
	// pz, pq, pm, pn are the four extra recurrence vectors of the pipelined
	// variant (z, q, m, n in Ghysels–Vanroose notation).
	pz, pq, pm, pn []float64
	// gv is the GMRES Krylov basis (Restart+1 vectors of local length);
	// gh/gc/gs/gg/gy are the small Hessenberg, Givens and solution buffers
	// of the restarted loop.
	gv                 [][]float64
	gh, gc, gs, gg, gy []float64
	scratch            *distmat.DistVec
	// op and pre are a serial solve's one-rank operator and preconditioner
	// adapter (see oneRank).
	op  *distmat.Op
	pre rankLocal
}

func grow(v *[]float64, n int) []float64 {
	if cap(*v) < n {
		*v = make([]float64, n)
	}
	*v = (*v)[:n]
	return *v
}

// take4 returns the four classic-CG vectors (r, z, d, q) of length n.
func (ws *Workspace) take4(n int) (r, z, d, q []float64) {
	return grow(&ws.r, n), grow(&ws.z, n), grow(&ws.d, n), grow(&ws.q, n)
}

// take5 returns the five fused-CG vectors (r, u, w, p, s) of length n; u,
// w, p alias the classic z, q, d slots so the two variants share storage.
func (ws *Workspace) take5(n int) (r, u, w, p, s []float64) {
	return grow(&ws.r, n), grow(&ws.z, n), grow(&ws.q, n), grow(&ws.d, n), grow(&ws.s, n)
}

// take9 returns the nine pipelined-CG vectors (r, u, w, p, s, z, q, m, n);
// the first five alias the fused-CG slots, the last four are the pipelined
// recurrence's own.
func (ws *Workspace) take9(nl int) (r, u, w, p, s, z, q, m, n []float64) {
	r, u, w, p, s = ws.take5(nl)
	return r, u, w, p, s,
		grow(&ws.pz, nl), grow(&ws.pq, nl), grow(&ws.pm, nl), grow(&ws.pn, nl)
}

// takeGMRES returns the restarted-GMRES buffers for local length nl and
// restart m: the residual/precondition/work vectors, the m+1 basis vectors,
// and the small (m+1)×m Hessenberg (row-major flat), Givens cosine/sine,
// rotated-RHS and solution buffers.
func (ws *Workspace) takeGMRES(nl, m int) (r, z, w []float64, v [][]float64, h, cs, sn, g, y []float64) {
	r, z, w = grow(&ws.r, nl), grow(&ws.z, nl), grow(&ws.q, nl)
	if cap(ws.gv) < m+1 {
		ws.gv = append(ws.gv[:cap(ws.gv)], make([][]float64, m+1-cap(ws.gv))...)
	}
	ws.gv = ws.gv[:m+1]
	for i := range ws.gv {
		ws.gv[i] = growSlice(ws.gv[i], nl)
	}
	return r, z, w, ws.gv,
		grow(&ws.gh, (m+1)*m), grow(&ws.gc, m), grow(&ws.gs, m),
		grow(&ws.gg, m+1), grow(&ws.gy, m)
}

func growSlice(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

// distScratch returns a halo-extended vector compatible with lz, reusing
// the previous one when the layout matches.
func (ws *Workspace) distScratch(lz *distmat.Localized) *distmat.DistVec {
	need := lz.NLocal() + len(lz.HaloSet())
	if ws.scratch == nil || ws.scratch.NLocal != lz.NLocal() || len(ws.scratch.Ext) != need {
		ws.scratch = distmat.NewDistVec(lz)
	}
	return ws.scratch
}

// DistCGFused solves A x = b with the fused-reduction (Chronopoulos–Gear)
// preconditioned CG recurrence. Per iteration it performs exactly one
// collective — AllreduceSum(rᵀu, wᵀu, ‖r‖²) — against the classic loop's
// three, with byte-identical halo traffic and unchanged neighbour sets
// (asserted by the metered tests). The SpMV uses the overlap schedule. In
// exact arithmetic the iterates equal classic PCG's; in floating point the
// rearranged scalar recurrences
//
//	β_i = γ_i/γ_{i−1},  α_i = γ_i/(δ_i − β_i·γ_i/α_{i−1})
//
// round differently, so iteration counts may shift by ±1.
func DistCGFused(c *simmpi.Comm, op *distmat.Op, b, x []float64, m DistPreconditioner, opt Options, fc *vecops.FlopCounter) (Stats, error) {
	tr := newTracer(opt.Trace, c)
	nl := op.LZ.NLocal()
	opt = opt.withDefaults(globalLen(c, nl))
	if m == nil {
		m = DistIdentity{}
	}
	if len(b) != nl || len(x) != nl {
		panic(fmt.Sprintf("krylov: DistCGFused local length %d/%d, want %d", len(b), len(x), nl))
	}
	ws := opt.Work
	if ws == nil {
		ws = &Workspace{}
	}
	r, u, w, p, s := ws.take5(nl)
	scratch := ws.distScratch(op.LZ)
	ov := op.EnsureOverlap()

	copy(r, b)
	vecops.Fill(p, 0)
	vecops.Fill(s, 0)
	m.Apply(c, r, u, fc)
	ov.MulVecOverlap(c, u, w, scratch, fc)
	ruL, wuL := vecops.Dot2(r, u, w, fc)
	rrL := vecops.Dot(r, r, fc)
	g := c.AllreduceSum(ruL, wuL, rrL)
	gamma, delta, rr := g[0], g[1], g[2]
	if rr == 0 {
		vecops.Fill(x, 0)
		return finish(Stats{Converged: true}, fc, tr), nil
	}
	norm0 := math.Sqrt(rr)
	if badCurv(gamma) || badCurv(delta) {
		return finish(Stats{}, fc, tr), fmt.Errorf("%w at DistCGFused setup (rᵀMr = %g, uᵀAu = %g); matrix or preconditioner not SPD?", ErrBreakdown, gamma, delta)
	}
	alpha := gamma / delta
	beta := 0.0
	tr.setup()

	st := Stats{}
	for iter := 1; iter <= opt.MaxIter; iter++ {
		if canceled(c, opt.Ctx) {
			return finish(st, fc, tr), fmt.Errorf("%w at iteration %d", ErrCanceled, iter)
		}
		// p ← u + βp, s ← w + βs, x ← x + αp, r ← r − αs, and the local
		// ‖r‖² contribution, all in one sweep.
		rrL := vecops.FusedCGUpdate(alpha, beta, u, w, p, s, x, r, fc)
		m.Apply(c, r, u, fc)
		ov.MulVecOverlap(c, u, w, scratch, fc)
		ruL, wuL := vecops.Dot2(r, u, w, fc)
		// The single collective of the iteration.
		g := c.AllreduceSum(ruL, wuL, rrL)
		gammaNew, delta, rr := g[0], g[1], g[2]
		if nonfinite(rr) || nonfinite(gammaNew) {
			// Allreduce results are rank-identical: collective verdict.
			return finish(st, fc, tr), fmt.Errorf("%w at iteration %d (‖r‖² = %g, rᵀMr = %g)", ErrBreakdown, iter, rr, gammaNew)
		}
		st.Iterations = iter
		st.RelResidual = math.Sqrt(rr) / norm0
		if opt.RecordResiduals {
			st.Residuals = append(st.Residuals, st.RelResidual)
		}
		if st.RelResidual <= opt.Tol {
			st.Converged = true
			tr.record(iter, st.RelResidual, alpha, beta)
			return finish(st, fc, tr), nil
		}
		// Record before α/β advance: the pass's traffic (apply, SpMV,
		// Allreduce) is complete here, and α/β are still the scalars of the
		// update that produced this iteration's residual.
		tr.record(iter, st.RelResidual, alpha, beta)
		beta = gammaNew / gamma
		denom := delta - beta*gammaNew/alpha
		if badCurv(denom) {
			return finish(st, fc, tr), fmt.Errorf("%w at iteration %d (recurrence denominator %g); matrix not SPD?", ErrBreakdown, iter, denom)
		}
		alpha = gammaNew / denom
		gamma = gammaNew
	}
	st = finish(st, fc, tr)
	return st, fmt.Errorf("%w: %d iterations, rel residual %.3e", ErrNoConvergence, st.Iterations, st.RelResidual)
}
