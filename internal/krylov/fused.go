package krylov

// The fused-reduction (Chronopoulos–Gear) Conjugate Gradient variant. The
// classic PCG loop performs three global reductions per iteration — dᵀq,
// ‖r‖² and rᵀz — each a separate latency-bound Allreduce. Rearranging the
// recurrence lets all three scalars of an iteration be computed back to
// back and reduced in a single variadic AllreduceSum, cutting the
// collective count per iteration from 3 to 1 while leaving the Krylov
// space — and therefore the iteration count, up to floating-point rounding
// — unchanged. The vector updates run as fused one-pass kernels
// (vecops.Dot2Batch, vecops.FusedCGUpdateBatch — Dot2 and FusedCGUpdate at
// width 1) so each iteration streams every vector once. A scalar solve
// (DistCG) drives the SpMV through the interior/boundary overlap schedule,
// so halo sends are in flight while interior rows are computed; there is no
// k-wide send-then-compute product, so wider blocks use the blocking
// schedule — whose metered traffic is the same, byte for byte and message
// for message.

import (
	"fmt"
	"math"

	"fsaicomm/internal/distmat"
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
	// cols, broken, active and sc are the per-column state of a k-wide CG
	// solve: the outcome slices its BatchStats hands back, the list of
	// columns still iterating and the recurrence scalars.
	cols   []Stats
	broken []bool
	active []int
	sc     []float64
	// pz, pq, pm, pn are the four extra recurrence vectors of the pipelined
	// variant (z, q, m, n in Ghysels–Vanroose notation).
	pz, pq, pm, pn []float64
	// gv is the GMRES Krylov basis (Restart+1 vectors of local length);
	// gh/gc/gs/gg/gy are the small Hessenberg, Givens and solution buffers
	// of the restarted loop.
	gv                 [][]float64
	gh, gc, gs, gg, gy []float64
	// scratch is the halo-extended product scratch (see haloScratch).
	scratch *distmat.DistVec
	// op and pre are a serial solve's one-rank operator and preconditioner
	// adapter (see oneRank).
	op  *distmat.Op
	pre rankLocal
}

func grow[T any](v *[]T, n int) []T {
	if cap(*v) < n {
		*v = make([]T, n)
	}
	*v = (*v)[:n]
	return *v
}

// columns returns the cleared per-column outcome of a k-wide solve and its
// active list, every column in it.
func (ws *Workspace) columns(k int) (BatchStats, []int) {
	cols, broken, active := grow(&ws.cols, k), grow(&ws.broken, k), grow(&ws.active, k)
	for c := range active {
		cols[c], broken[c], active[c] = Stats{}, false, c
	}
	return BatchStats{K: k, Cols: cols, Broken: broken}, active
}

// scalars returns n zeroed recurrence scalars.
func (ws *Workspace) scalars(n int) []float64 {
	sc := grow(&ws.sc, n)
	vecops.Fill(sc, 0)
	return sc
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

// fused is the fused-reduction (Chronopoulos–Gear) preconditioned CG
// recurrence at width k. Per iteration it performs exactly one collective —
// AllreduceSum of the 3k values rᵀu, wᵀu, ‖r‖² per column — against the
// classic loop's three, with byte-identical halo traffic and unchanged
// neighbour sets (asserted by the metered tests). In exact arithmetic the
// iterates equal classic PCG's; in floating point the rearranged scalar
// recurrences
//
//	β_i = γ_i/γ_{i−1},  α_i = γ_i/(δ_i − β_i·γ_i/α_{i−1})
//
// round differently, so iteration counts may shift by ±1.
func (s *wide) fused(b, x []float64) (BatchStats, error) {
	c, k, fc, bs := s.c, s.k, s.fc, &s.bs
	r, u, w, p, sv := s.ws.take5(s.nl * k)
	copy(r, b)
	vecops.Fill(p, 0)
	vecops.Fill(sv, 0)
	sc := s.ws.scalars(10 * k)
	norm0, gamma, alpha, beta := sc[:k], sc[k:2*k], sc[2*k:3*k], sc[3*k:4*k]
	gammaL, deltaL, rrL, g := sc[4*k:5*k], sc[5*k:6*k], sc[6*k:7*k], sc[7*k:]

	// Setup pass over every column: the zero-RHS and non-SPD checks come out
	// of the first collective.
	s.m.ApplyBatch(c, r, u, k, nil, fc)
	s.op.MulMat(c, u, w, k, nil, s.scratch, fc)
	vecops.Dot2Batch(r, u, w, k, nil, gammaL, deltaL, fc)
	vecops.DotBatch(r, r, k, nil, rrL, fc)
	copy(g[:k], gammaL)
	copy(g[k:2*k], deltaL)
	copy(g[2*k:], rrL)
	gr := distmat.SumAcross(c, g)
	live := s.active[:0]
	for _, col := range s.active {
		ga, de, rr := gr[col], gr[k+col], gr[2*k+col]
		if rr == 0 {
			s.zeroColumn(x, col)
			bs.Cols[col].Converged = true
			continue
		}
		norm0[col] = math.Sqrt(rr)
		if badCurv(ga) || badCurv(de) {
			bs.Broken[col] = true
			continue
		}
		gamma[col] = ga
		alpha[col] = ga / de
		live = append(live, col)
	}
	s.active = live
	s.tr.setup()

	for iter := 1; iter <= s.opt.MaxIter && len(s.active) > 0; iter++ {
		if canceled(c, s.opt.Ctx) {
			return s.canceledAt(iter)
		}
		// p ← u + βp, s ← w + βs, x ← x + αp, r ← r − αs, and the local
		// ‖r‖² contribution, all in one sweep.
		vecops.FusedCGUpdateBatch(alpha, beta, u, w, p, sv, x, r, k, s.mask(), rrL, fc)
		s.m.ApplyBatch(c, r, u, k, s.mask(), fc)
		s.op.MulMat(c, u, w, k, s.mask(), s.scratch, fc)
		vecops.Dot2Batch(r, u, w, k, s.mask(), gammaL, deltaL, fc)
		// The single collective of the iteration. Frozen columns contribute
		// exact zeros so it stays a fixed 3k values.
		vecops.Fill(g, 0)
		for _, col := range s.active {
			g[col], g[k+col], g[2*k+col] = gammaL[col], deltaL[col], rrL[col]
		}
		gr := distmat.SumAcross(c, g)
		bs.Iterations = iter
		live = s.active[:0]
		for _, col := range s.active {
			st := &bs.Cols[col]
			st.Iterations = iter
			st.RelResidual = math.Sqrt(gr[2*k+col]) / norm0[col]
			if nonfinite(gr[2*k+col]) || nonfinite(gr[col]) {
				bs.Broken[col] = true
				continue
			}
			if s.opt.RecordResiduals {
				st.Residuals = append(st.Residuals, st.RelResidual)
			}
			if st.RelResidual <= s.opt.Tol {
				st.Converged = true
				continue
			}
			live = append(live, col)
		}
		s.active = live
		// Record before α/β advance: the pass's traffic (apply, SpMV,
		// Allreduce) is complete here, and α/β are still the scalars of the
		// update that produced this iteration's residual.
		s.tr.record(iter, bs.Cols[0].RelResidual, alpha[0], beta[0])
		live = s.active[:0]
		for _, col := range s.active {
			gammaNew := gr[col]
			betaNew := gammaNew / gamma[col]
			denom := gr[k+col] - betaNew*gammaNew/alpha[col]
			if badCurv(denom) {
				bs.Broken[col] = true
				continue
			}
			beta[col] = betaNew
			alpha[col] = gammaNew / denom
			gamma[col] = gammaNew
			live = append(live, col)
		}
		s.active = live
	}
	return conclude(*bs, fc, s.tr, nil)
}
