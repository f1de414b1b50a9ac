package krylov

// Restarted GMRES — the nonsymmetric companion to the CG loops. The solver
// is right-preconditioned (it iterates on A·M with x recovered through one
// extra preconditioner apply per restart cycle), which keeps the residual
// the solver monitors equal to the true residual of A·x = b and lets the
// SPAI approximate inverse plug in as an explicit sparse matrix product.
// The distributed loop has a fixed, rank-uniform collective schedule that
// the telemetry tests pin: one Norm2 at every restart-cycle top, and for
// inner iteration j (0-based within its cycle) j+1 modified-Gram–Schmidt
// dot products plus one Norm2 — all through the metered Sum Allreduce — with
// one extra Max Allreduce per iteration when a cancellation context is
// supplied, exactly as in the CG variants.

import (
	"fmt"
	"math"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/vecops"
)

// Solver selects the Krylov iteration of a solve: CG for SPD systems
// (the FSAI family), GMRES for general nonsymmetric ones (SPAI).
type Solver int

const (
	// SolverCG is preconditioned conjugate gradients — the default, valid
	// only for SPD matrices.
	SolverCG Solver = iota
	// SolverGMRES is restarted GMRES with modified Gram–Schmidt, valid for
	// general (nonsymmetric) matrices.
	SolverGMRES
)

// String returns the flag spelling of the solver.
func (s Solver) String() string {
	switch s {
	case SolverCG:
		return "cg"
	case SolverGMRES:
		return "gmres"
	default:
		return fmt.Sprintf("Solver(%d)", int(s))
	}
}

// ParseSolver parses the -solver flag spellings: "cg", "gmres". The empty
// string is SolverCG.
func ParseSolver(s string) (Solver, error) {
	switch s {
	case "", "cg":
		return SolverCG, nil
	case "gmres":
		return SolverGMRES, nil
	default:
		return SolverCG, fmt.Errorf("krylov: unknown solver %q (want cg or gmres)", s)
	}
}

// DistMatPrecond applies z ← M·r with a distributed explicit approximate
// inverse — one halo-exchanged product, no collectives.
type DistMatPrecond struct {
	M *distmat.Op
	w *distmat.DistVec
}

// NewDistMatPrecond builds the distributed SPAI preconditioner from the
// local operator for M.
func NewDistMatPrecond(m *distmat.Op) *DistMatPrecond {
	return &DistMatPrecond{M: m, w: distmat.NewDistVec(m.LZ)}
}

// ApplyBatch computes the active columns of the local block of z = M·r.
func (p *DistMatPrecond) ApplyBatch(c *simmpi.Comm, r, z []float64, k int, cols []int, fc *vecops.FlopCounter) {
	p.M.MulMat(c, r, z, k, cols, haloScratch(&p.w, p.M.LZ, k), fc)
}

// restartLen resolves the restart length against the problem size.
func restartLen(opt Options, n int) int {
	m := opt.Restart
	if m <= 0 {
		m = 30
	}
	if m > n {
		m = n
	}
	if m < 1 {
		m = 1
	}
	return m
}

// flushTail folds the rank's traffic since the last cut into the most
// recent iteration record. The restarted loop's cycle-end update and the
// terminal restart check run after that iteration's record was cut, so
// every GMRES return path flushes to keep Setup + records summing exactly
// to the metered totals.
func (t *tracer) flushTail() {
	if t == nil || len(t.tr.Iters) == 0 {
		return
	}
	t.tr.Iters[len(t.tr.Iters)-1].Comm.add(t.delta())
}

// GMRES solves A x = b with right-preconditioned restarted GMRES, starting
// from the zero initial guess. x is overwritten with the solution; pass a
// zeroed slice. Options.Restart sets the cycle length (default 30);
// Options.Variant must be CGClassic (the zero value) — GMRES has no
// communication-rearranged variants. It is DistGMRES on a one-rank world.
func GMRES(a *sparse.CSR, b, x []float64, m Preconditioner, opt Options, fc *vecops.FlopCounter) (Stats, error) {
	op, pre := oneRank(a, m, &opt)
	return DistGMRES(nil, op, b, x, pre, opt, fc)
}

// givensStep folds column j of the Hessenberg into the QR factorization
// maintained by Givens rotations: applies rotations 0..j−1 to the new
// column, forms rotation j to annihilate the subdiagonal hnext, updates the
// rotated RHS g, and returns the new relative-residual estimate
// |g[j+1]|/norm0. h is (m+1)×m row-major flat with only rows 0..j in use.
func givensStep(h, cs, sn, g []float64, m, j int, hnext, norm0 float64) (float64, error) {
	for i := 0; i < j; i++ {
		t := cs[i]*h[i*m+j] + sn[i]*h[(i+1)*m+j]
		h[(i+1)*m+j] = -sn[i]*h[i*m+j] + cs[i]*h[(i+1)*m+j]
		h[i*m+j] = t
	}
	denom := math.Hypot(h[j*m+j], hnext)
	if denom == 0 || nonfinite(denom) {
		return 0, fmt.Errorf("Hessenberg column %d is zero below the rotated diagonal (denom = %g)", j, denom)
	}
	cs[j] = h[j*m+j] / denom
	sn[j] = hnext / denom
	h[j*m+j] = denom
	g[j+1] = -sn[j] * g[j]
	g[j] = cs[j] * g[j]
	est := math.Abs(g[j+1]) / norm0
	if nonfinite(est) {
		return 0, fmt.Errorf("residual estimate not finite (%g)", est)
	}
	return est, nil
}

// hessSolve back-substitutes the rotated k×k upper-triangular system
// R·y = g left by the Givens steps.
func hessSolve(h, g, y []float64, m, k int) error {
	for i := k - 1; i >= 0; i-- {
		s := g[i]
		for l := i + 1; l < k; l++ {
			s -= h[i*m+l] * y[l]
		}
		if h[i*m+i] == 0 || nonfinite(h[i*m+i]) {
			return fmt.Errorf("triangular solve pivot %d = %g", i, h[i*m+i])
		}
		y[i] = s / h[i*m+i]
		if nonfinite(y[i]) {
			return fmt.Errorf("triangular solve entry %d not finite", i)
		}
	}
	return nil
}

// DistGMRES solves A x = b with right-preconditioned restarted GMRES in the
// distributed setting. Every rank passes its local slices of b and x (x
// zeroed); all ranks receive identical Stats — every termination decision
// is taken on AllreduceSum results, bitwise identical on every rank. The
// modified-Gram–Schmidt projections are sequential metered collectives
// (j+1 dots plus one norm for inner iteration j), giving GMRES the
// latency-bound reduction profile the archmodel cost entries account for.
// A nil Comm is the one-rank world.
func DistGMRES(c *simmpi.Comm, op *distmat.Op, b, x []float64, prec DistPreconditioner, opt Options, fc *vecops.FlopCounter) (Stats, error) {
	tr := newTracer(opt.Trace, c)
	nl := op.LZ.NLocal()
	nGlobal := globalLen(c, nl)
	opt = opt.withDefaults(nGlobal)
	if prec == nil {
		prec = DistIdentity{}
	}
	if len(b) != nl || len(x) != nl {
		panic(fmt.Sprintf("krylov: DistGMRES local length %d/%d, want %d", len(b), len(x), nl))
	}
	ws := opt.Work
	if ws == nil {
		ws = &Workspace{}
	}
	mr := restartLen(opt, nGlobal)
	r, z, w, v, h, cs, sn, g, y := ws.takeGMRES(nl, mr)
	scratch := haloScratch(&ws.scratch, op.LZ, 1)

	st := Stats{}
	norm0 := 0.0
	first := true
	for {
		// Cycle top: true residual r = b − A·x and its norm.
		if first {
			copy(r, b) // x = 0
		} else {
			op.MulMat(c, x, r, 1, nil, scratch, fc)
			for i := range r {
				r[i] = b[i] - r[i]
			}
			fc.Add(int64(nl))
		}
		beta := distmat.Norm2(c, r, fc)
		if first {
			norm0 = beta
			if norm0 == 0 {
				vecops.Fill(x, 0)
				return finish(Stats{Converged: true}, fc, tr), nil
			}
			tr.setup()
			first = false
		} else {
			st.RelResidual = beta / norm0
		}
		if nonfinite(beta) {
			tr.flushTail()
			return finish(st, fc, tr), fmt.Errorf("%w at iteration %d (‖r‖ = %g)", ErrBreakdown, st.Iterations, beta)
		}
		if beta/norm0 <= opt.Tol {
			st.Converged = true
			st.RelResidual = beta / norm0
			tr.flushTail()
			return finish(st, fc, tr), nil
		}
		if st.Iterations >= opt.MaxIter {
			tr.flushTail()
			st = finish(st, fc, tr)
			return st, fmt.Errorf("%w: %d iterations, rel residual %.3e", ErrNoConvergence, st.Iterations, st.RelResidual)
		}

		// Build the cycle's Krylov basis.
		inv := 1 / beta
		for i := range r {
			v[0][i] = r[i] * inv
		}
		fc.Add(int64(nl))
		g[0] = beta
		for i := 1; i <= mr; i++ {
			g[i] = 0
		}
		k := 0 // basis dimension built this cycle
		cycleDone := false
		for j := 0; j < mr && !cycleDone; j++ {
			if canceled(c, opt.Ctx) {
				tr.flushTail()
				return finish(st, fc, tr), fmt.Errorf("%w at iteration %d: %v", ErrCanceled, st.Iterations+1, opt.Ctx.Err())
			}
			prec.ApplyBatch(c, v[j], z, 1, nil, fc)
			op.MulMat(c, z, w, 1, nil, scratch, fc)
			// Modified Gram–Schmidt against the basis built so far.
			for i := 0; i <= j; i++ {
				hij := distmat.Dot(c, v[i], w, fc)
				h[i*mr+j] = hij
				vecops.Axpy(-hij, v[i], w, fc)
			}
			hnext := distmat.Norm2(c, w, fc)
			if nonfinite(hnext) {
				// Allreduce result — identical on every rank — so this return
				// is itself the collective verdict, as in the CG loops.
				tr.flushTail()
				return finish(st, fc, tr), fmt.Errorf("%w at iteration %d (‖w‖ = %g)", ErrBreakdown, st.Iterations+1, hnext)
			}
			est, err := givensStep(h, cs, sn, g, mr, j, hnext, norm0)
			st.Iterations++
			k = j + 1
			if err != nil {
				tr.flushTail()
				return finish(st, fc, tr), fmt.Errorf("%w at iteration %d: %v", ErrBreakdown, st.Iterations, err)
			}
			st.RelResidual = est
			if opt.RecordResiduals {
				st.Residuals = append(st.Residuals, est)
			}
			tr.record(st.Iterations, est, 0, 0)
			switch {
			case hnext == 0:
				// Happy breakdown: the Krylov space is invariant, so the
				// cycle's solution is exact up to rounding.
				if est > opt.Tol {
					tr.flushTail()
					return finish(st, fc, tr), fmt.Errorf("%w at iteration %d (happy breakdown with rel residual %.3e > tol)", ErrBreakdown, st.Iterations, est)
				}
				st.Converged = true
				cycleDone = true
			case est <= opt.Tol || st.Iterations >= opt.MaxIter:
				st.Converged = est <= opt.Tol
				cycleDone = true
			default:
				inv := 1 / hnext
				for i := range w {
					v[j+1][i] = w[i] * inv
				}
				fc.Add(int64(nl))
			}
		}

		// Cycle end: solve the k×k triangular system and fold the correction
		// x ← x + M·(V·y) — one preconditioner apply per cycle.
		if err := hessSolve(h, g, y, mr, k); err != nil {
			tr.flushTail()
			return finish(st, fc, tr), fmt.Errorf("%w at iteration %d: %v", ErrBreakdown, st.Iterations, err)
		}
		vecops.Fill(w, 0)
		for i := 0; i < k; i++ {
			vecops.Axpy(y[i], v[i], w, fc)
		}
		prec.ApplyBatch(c, w, z, 1, nil, fc)
		vecops.Axpy(1, z, x, fc)
		if st.Converged {
			tr.flushTail()
			return finish(st, fc, tr), nil
		}
	}
}
