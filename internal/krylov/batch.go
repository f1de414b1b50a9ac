package krylov

// The k-wide Conjugate Gradient recurrences — the only bodies of the classic
// and fused loops. A solve of width k runs the k systems A·x_c = b_c as k
// INDEPENDENT per-column recurrences — each column keeps its own α/β/ρ
// scalars — driven through the block kernels: one SpMM per iteration instead
// of k SpMVs, one k-wide halo update per neighbour instead of k, and one
// k-wide AllreduceSum per reduction point instead of k scalar ones. Because
// simmpi's collectives reduce element-wise in deterministic rank order and
// every block kernel accumulates each column in its scalar counterpart's
// index order, column c of a batched solve is bit-identical to a solve of
// column c alone — regardless of what the other columns are doing. That
// property (pinned by the differential tests) is why batching is a
// throughput optimization and not a different numerical method: it is
// exactly k scalar CG solves sharing their memory traffic and message
// envelopes.
//
// A scalar solve is the same loop at width 1. There the block kernels ARE
// the scalar ones — vecops' k-wide kernels, distmat.Op.MulMat and
// DotBatchDist each hand a 1-wide unmasked call to their scalar counterpart
// — so DistCG and CG are views of this file's loops (see scalarResult) and
// pay nothing for the generality. The loops themselves never ask how wide
// they are, except for telemetry: Options.Trace records one column's α/β,
// so it is honoured at width 1 and ignored on wider blocks.
//
// Columns that converge are frozen: they leave the active list, stop
// costing flops in every kernel, and their x column is never touched
// again. Collectives stay k wide (frozen columns contribute exact zeros)
// and halo payloads stay k wide, so the communication *schedule* — message
// count and collective call count per iteration — never depends on the
// convergence state. A column whose dᵀAd turns non-positive (the SPD
// breakdown) is frozen as broken instead of failing the whole batch.

import (
	"errors"
	"fmt"
	"math"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/vecops"
)

// ErrBatchVariant is returned when a batched solve is asked for a CG
// variant other than classic or fused. The overlap and pipelined schedules
// hide latency that the batch already amortizes across columns; supporting
// them would complicate the masked recurrences for no modeled gain.
var ErrBatchVariant = errors.New("krylov: batched solve supports the classic and fused variants only")

// BatchStats reports the outcome of a k-wide solve: one Stats per column
// (Iterations, Converged, RelResidual, Residuals — exactly what a solve of
// that column alone reports) plus batch-level aggregates. When the solve
// was given Options.Work, Cols and Broken are the workspace's: read them
// before its next solve.
type BatchStats struct {
	K    int
	Cols []Stats
	// Iterations is the number of iterations the batch loop ran — the
	// maximum over columns, which is what the batch's communication bill
	// scales with.
	Iterations int
	// Broken marks columns frozen by an SPD-breakdown (dᵀAd ≤ 0 or a
	// non-finite recurrence scalar); their Stats hold the last completed
	// iteration and Converged is false.
	Broken []bool
	// Refinements is the number of FP64 iterative-refinement steps a
	// mixed-precision batched solve performed; 0 for plain FP64 solves.
	Refinements int
	// Flops is this rank's flop count at exit (per-column flops are not
	// split out) and Trace the width-1 telemetry when Options.Trace is set.
	Flops int64
	Trace *IterTrace
}

// allConverged reports whether every column converged.
func (bs *BatchStats) allConverged() bool {
	for i := range bs.Cols {
		if !bs.Cols[i].Converged {
			return false
		}
	}
	return true
}

// batchResult pairs the stats of a solve that ran to its end with the
// batch's verdict: nil when every column converged.
func batchResult(bs BatchStats) (BatchStats, error) {
	if bs.allConverged() {
		return bs, nil
	}
	unconverged, broken := 0, 0
	for c := range bs.Cols {
		if !bs.Cols[c].Converged {
			unconverged++
		}
		if bs.Broken[c] {
			broken++
		}
	}
	err := fmt.Errorf("%w: %d of %d columns unconverged (%d broken down) after %d iterations",
		ErrNoConvergence, unconverged, bs.K, broken, bs.Iterations)
	if broken > 0 {
		// Both sentinels match: the batch failed to converge, and at least
		// one column did so by breaking down rather than running out of
		// iterations.
		err = fmt.Errorf("%w: %w", ErrBreakdown, err)
	}
	return bs, err
}

// conclude stamps the fields every return path of a k-wide solve agrees on
// — the cumulative flop count and the attached trace — and pairs the stats
// with err (a cancellation, a failed inner solve) or, when err is nil, with
// the batch's own verdict.
func conclude(bs BatchStats, fc *vecops.FlopCounter, tr *tracer, err error) (BatchStats, error) {
	bs.Flops = fc.Count()
	bs.Trace = tr.trace()
	if err != nil {
		return bs, err
	}
	return batchResult(bs)
}

// scalarResult is the width-1 view: the one column's Stats with the batch
// aggregates folded in, and the column's breakdown — which a batch only
// marks, so that its mates go on — as the ErrBreakdown a scalar solve
// returns.
func scalarResult(bs BatchStats, err error) (Stats, error) {
	st := bs.Cols[0]
	st.Refinements, st.Flops, st.Trace = bs.Refinements, bs.Flops, bs.Trace
	if bs.Broken[0] {
		return st, fmt.Errorf("%w after iteration %d (rel residual %g): a curvature or reduction scalar is non-positive or not finite; matrix or preconditioner not SPD?",
			ErrBreakdown, st.Iterations, st.RelResidual)
	}
	return st, err
}

// oneColumn is the opposite view, for the scalar loops (pipelined CG,
// GMRES) where a k-wide outcome is expected: the solve's Stats as a 1-wide
// BatchStats, an ErrBreakdown-wrapped error as the column's Broken mark.
func oneColumn(st Stats, err error) (BatchStats, error) {
	return BatchStats{K: 1, Cols: []Stats{st}, Broken: []bool{errors.Is(err, ErrBreakdown)},
		Iterations: st.Iterations, Refinements: st.Refinements, Flops: st.Flops, Trace: st.Trace}, err
}

// checkBatchOptions validates the variant and batch size shared by the
// batched entry points.
func checkBatchOptions(k int, opt Options) error {
	if k < 1 {
		return fmt.Errorf("krylov: batch size %d < 1", k)
	}
	switch opt.Variant {
	case CGClassic, CGFused:
		return nil
	default:
		return fmt.Errorf("%w (got %s)", ErrBatchVariant, opt.Variant)
	}
}

// DistCGBatch solves the k distributed systems A·x_c = b_c with the
// k-wide CG recurrence. Every rank passes its local interleaved blocks of
// b and x (x zeroed); all ranks receive identical BatchStats. Per
// iteration the classic variant performs one batched SpMM (one k-wide halo
// message per neighbour) and three k-wide AllreduceSums — the same
// collective CALL count as one scalar solve, serving all k columns; the
// fused variant performs one AllreduceSum of 3k values. Column c of the
// result is bit-identical to DistCG on column c alone — at k = 1 it is the
// loop DistCG runs — which also means the batch's communication bill equals
// one scalar solve's in messages and collective calls, and k× in halo bytes
// (the metered tests pin all three). Variants other than classic and fused
// return ErrBatchVariant. A nil Comm is the one-rank world; a nil m leaves
// the systems unpreconditioned. With Options.Work set a steady-state solve
// allocates nothing.
func DistCGBatch(c *simmpi.Comm, op *distmat.Op, b, x []float64, m DistPreconditioner, k int, opt Options, fc *vecops.FlopCounter) (BatchStats, error) {
	if err := checkBatchOptions(k, opt); err != nil {
		return BatchStats{}, err
	}
	return distCGWide(c, op, b, x, m, k, opt, fc)
}

// wide is one k-wide solve: what the classic and fused recurrences share
// on entry, with the per-column state taken from the workspace.
type wide struct {
	c       *simmpi.Comm
	op      *distmat.Op
	m       DistPreconditioner
	k, nl   int
	opt     Options
	fc      *vecops.FlopCounter
	ws      *Workspace
	scratch *distmat.DistVec
	tr      *tracer
	bs      BatchStats
	// active lists the columns still iterating, ascending; freezing a column
	// filters it out in place.
	active []int
}

// distCGWide runs the recurrence opt.Variant names (CGClassicOverlap is the
// classic one: the schedule is the operator's) at width k.
func distCGWide(c *simmpi.Comm, op *distmat.Op, b, x []float64, m DistPreconditioner, k int, opt Options, fc *vecops.FlopCounter) (BatchStats, error) {
	nl := op.LZ.NLocal()
	if len(b) != nl*k || len(x) != nl*k {
		panic(fmt.Sprintf("krylov: CG local length %d/%d, want %d (k = %d)", len(b), len(x), nl*k, k))
	}
	s := wide{c: c, op: op, m: m, k: k, nl: nl, fc: fc, ws: opt.Work, tr: newTracer(opt.Trace && k == 1, c)}
	s.opt = opt.withDefaults(globalLen(c, nl))
	if m == nil {
		s.m = DistIdentity{}
	}
	if s.ws == nil {
		s.ws = &Workspace{}
	}
	s.scratch = haloScratch(&s.ws.scratch, op.LZ, k)
	s.bs, s.active = s.ws.columns(k)
	if opt.Variant == CGFused {
		return s.fused(b, x)
	}
	return s.classic(b, x)
}

// mask returns the kernel mask: nil (the fast path) while every column is
// active, the ascending active list otherwise.
func (s *wide) mask() []int {
	if len(s.active) == s.k {
		return nil
	}
	return s.active
}

// zeroColumn clears column col of the interleaved block x.
func (s *wide) zeroColumn(x []float64, col int) {
	for i := col; i < len(x); i += s.k {
		x[i] = 0
	}
}

// canceledAt concludes a solve its context stopped before iteration iter.
func (s *wide) canceledAt(iter int) (BatchStats, error) {
	return conclude(s.bs, s.fc, s.tr, fmt.Errorf("%w at iteration %d: %v", ErrCanceled, iter, s.opt.Ctx.Err()))
}

// classic is the textbook PCG recurrence at width k: one product, one
// preconditioner application and three reductions per iteration. Each local
// dot product rides the sweep that writes one of its operands: d·q the
// product (distmat.Op.MulMatDot), r·r the update of x and r
// (vecops.ClassicCGUpdateBatch) and r·z the preconditioner's last product
// where it has one (applyDot). Every such sum adds the terms DotBatch adds
// in DotBatch's order, so the bits are those of the separate calls.
func (s *wide) classic(b, x []float64) (BatchStats, error) {
	c, k, fc, bs := s.c, s.k, s.fc, &s.bs
	// d lives in front of the product's halo, where the product reads it in
	// place: no copy per iteration.
	r, z, q := s.ws.take3(s.nl * k)
	d := s.scratch.Local()
	copy(r, b)
	sc := s.ws.scalars(6 * k)
	norm0, rho, alpha, negAlpha, beta, tmp := sc[:k], sc[k:2*k], sc[2*k:3*k], sc[3*k:4*k], sc[4*k:5*k], sc[5*k:]

	distmat.DotBatchDist(c, r, r, k, nil, tmp, fc)
	live := s.active[:0]
	for _, col := range s.active {
		norm0[col] = math.Sqrt(tmp[col])
		if norm0[col] == 0 {
			s.zeroColumn(x, col)
			bs.Cols[col].Converged = true
			continue
		}
		live = append(live, col)
	}
	if s.active = live; len(live) == 0 {
		return conclude(*bs, fc, s.tr, nil)
	}
	s.applyDot(r, z, rho)
	copy(d, z)
	s.tr.setup()

	// Every freeze below is decided on Allreduce results — identical on every
	// rank — so the ranks agree on the active list with no extra collective.
	for iter := 1; iter <= s.opt.MaxIter; iter++ {
		if canceled(c, s.opt.Ctx) {
			return s.canceledAt(iter)
		}
		s.op.MulMatDot(c, d, q, d, k, s.mask(), s.scratch, tmp, fc)
		live = s.active[:0]
		for _, col := range s.active {
			if badCurv(tmp[col]) {
				bs.Broken[col] = true
				continue
			}
			alpha[col] = rho[col] / tmp[col]
			negAlpha[col] = -alpha[col]
			live = append(live, col)
		}
		if s.active = live; len(live) == 0 {
			break
		}
		clear(tmp)
		vecops.ClassicCGUpdateBatch(alpha, negAlpha, d, q, x, r, k, s.mask(), tmp, fc)
		copy(tmp, distmat.SumAcross(c, tmp))
		bs.Iterations = iter
		live = s.active[:0]
		for _, col := range s.active {
			st := &bs.Cols[col]
			st.Iterations = iter
			st.RelResidual = math.Sqrt(tmp[col]) / norm0[col]
			if nonfinite(tmp[col]) {
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
		if s.active = live; len(live) == 0 {
			s.tr.record(iter, bs.Cols[0].RelResidual, alpha[0], beta[0])
			break
		}
		s.applyDot(r, z, tmp)
		// The pass's traffic is complete and α/β are still the scalars of the
		// update that produced this iteration's residual.
		s.tr.record(iter, bs.Cols[0].RelResidual, alpha[0], beta[0])
		live = s.active[:0]
		for _, col := range s.active {
			if nonfinite(tmp[col]) {
				bs.Broken[col] = true
				continue
			}
			beta[col] = tmp[col] / rho[col]
			rho[col] = tmp[col]
			live = append(live, col)
		}
		if s.active = live; len(live) == 0 {
			break
		}
		vecops.XpayBatch(z, beta, d, k, s.mask(), fc)
	}
	return conclude(*bs, fc, s.tr, nil)
}

// applyDot computes z = M·r on the active columns and out[c] = Σ_ranks
// r_cᵀz_c: in one call where the preconditioner reduces inside its apply
// (DistSplit), as the application followed by DotBatchDist otherwise.
func (s *wide) applyDot(r, z, out []float64) {
	cols := s.mask()
	if m, ok := s.m.(*DistSplit); ok {
		m.ApplyDotBatch(s.c, r, z, s.k, cols, out, s.fc)
		return
	}
	s.m.ApplyBatch(s.c, r, z, s.k, cols, s.fc)
	distmat.DotBatchDist(s.c, r, z, s.k, cols, out, s.fc)
}
