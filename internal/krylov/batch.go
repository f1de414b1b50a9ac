package krylov

// Batched (block multi-RHS) Conjugate Gradient. The batch solves the k
// systems A·x_c = b_c with k INDEPENDENT per-column recurrences — each
// column keeps its own α/β/ρ scalars — driven through the block kernels:
// one SpMM per iteration instead of k SpMVs, one k-wide halo update per
// neighbour instead of k, and one k-wide AllreduceSum per reduction point
// instead of k scalar ones. Because simmpi's collectives reduce
// element-wise in deterministic rank order and every block kernel
// accumulates each column in its scalar counterpart's index order, column
// c of a batched solve is bit-identical to a scalar solve of column c —
// regardless of what the other columns are doing. That property (pinned by
// the differential tests) is why this is a throughput optimization and not
// a different numerical method: it is exactly k scalar CG solves sharing
// their memory traffic and message envelopes.
//
// Columns that converge are frozen: they leave the active mask, stop
// costing flops in every kernel, and their x column is never touched
// again. Collectives stay k wide (frozen columns contribute exact zeros)
// and halo payloads stay k wide, so the communication *schedule* — message
// count and collective call count per iteration — never depends on the
// convergence state. A column whose dᵀAd turns non-positive (the scalar
// loop's SPD breakdown) is frozen as broken instead of failing the whole
// batch. Options.Trace and Options.RecordResiduals are ignored (per-column
// traces would multiply telemetry k-fold; use a scalar solve to trace).

import (
	"context"
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

// DistBatchPreconditioner applies z_c ← M·r_c on the active columns of a
// rank's local interleaved block; masked columns of z must be left
// untouched. Collective: every rank calls it the same number of times with
// the same mask.
type DistBatchPreconditioner interface {
	ApplyBatch(c *simmpi.Comm, r, z []float64, k int, cols []int, fc *vecops.FlopCounter)
}

// DistSplitBatch applies z = Gᵀ(G·r) to interleaved blocks with
// distributed G and Gᵀ — the batched counterpart of DistSplit. Each of the
// two SpMMs performs one k-wide halo update (one message per neighbour).
type DistSplitBatch struct {
	G, GT   *distmat.Op
	wG, wGT *distmat.BatchDistVec
	interm  []float64
	k       int
}

// NewDistSplitBatch builds the batched distributed split preconditioner
// from the local operators for G and Gᵀ, for batches of size k.
func NewDistSplitBatch(g, gt *distmat.Op, k int) *DistSplitBatch {
	return &DistSplitBatch{
		G:      g,
		GT:     gt,
		wG:     distmat.NewBatchDistVec(g.LZ, k),
		wGT:    distmat.NewBatchDistVec(gt.LZ, k),
		interm: make([]float64, g.LZ.NLocal()*k),
		k:      k,
	}
}

// ApplyBatch computes the local block of z = Gᵀ(G·r) on the active columns.
func (s *DistSplitBatch) ApplyBatch(c *simmpi.Comm, r, z []float64, k int, cols []int, fc *vecops.FlopCounter) {
	if k != s.k {
		panic(fmt.Sprintf("krylov: DistSplitBatch batch size %d, prepared for %d", k, s.k))
	}
	s.G.MulMat(c, r, s.interm, k, cols, s.wG, fc)
	s.GT.MulMat(c, s.interm, z, k, cols, s.wGT, fc)
}

// BatchStats reports the outcome of a batched solve: one Stats per column
// (Iterations, Converged, RelResidual — exactly what the scalar solve of
// that column would report) plus batch-level aggregates. Per-column Flops
// are not split out; the caller's FlopCounter holds the batch total.
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

// batchCtl tracks the active-column mask and per-column freezing shared by
// the batched loops.
type batchCtl struct {
	k      int
	active []int
}

func newBatchCtl(k int) *batchCtl {
	ctl := &batchCtl{k: k, active: make([]int, k)}
	for c := range ctl.active {
		ctl.active[c] = c
	}
	return ctl
}

// mask returns the kernel mask: nil (the fast path) while every column is
// active, the ascending active list otherwise.
func (ctl *batchCtl) mask() []int {
	if len(ctl.active) == ctl.k {
		return nil
	}
	return ctl.active
}

// freeze removes a column from the active set, preserving ascending order.
func (ctl *batchCtl) freeze(col int) {
	for i, c := range ctl.active {
		if c == col {
			ctl.active = append(ctl.active[:i], ctl.active[i+1:]...)
			return
		}
	}
}

func (ctl *batchCtl) done() bool { return len(ctl.active) == 0 }

// batchResult assembles the final (stats, error) pair of a batched loop.
func batchResult(bs BatchStats, canceledAt int, ctx context.Context) (BatchStats, error) {
	if canceledAt > 0 {
		var cause error
		if ctx != nil {
			cause = ctx.Err()
		}
		return bs, fmt.Errorf("%w at iteration %d: %v", ErrCanceled, canceledAt, cause)
	}
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
	if broken > 0 {
		// Both sentinels match: the batch failed to converge, and at least
		// one column did so by breaking down rather than running out of
		// iterations.
		return bs, fmt.Errorf("%w: %w: %d of %d columns unconverged (%d broken down) after %d iterations",
			ErrNoConvergence, ErrBreakdown, unconverged, bs.K, broken, bs.Iterations)
	}
	return bs, fmt.Errorf("%w: %d of %d columns unconverged (%d broken down) after %d iterations",
		ErrNoConvergence, unconverged, bs.K, broken, bs.Iterations)
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
// batched CG recurrence. Every rank passes its local interleaved blocks of
// b and x (x zeroed); all ranks receive identical BatchStats. Per
// iteration the classic variant performs one batched SpMM (one k-wide halo
// message per neighbour) and three k-wide AllreduceSums — the same
// collective CALL count as one scalar solve, serving all k columns; the
// fused variant performs one AllreduceSum of 3k values. Column c of the
// result is bit-identical to DistCG on column c alone, which also means
// the batch's communication bill equals one scalar solve's in messages and
// collective calls, and k× in halo bytes (the metered tests pin all
// three). Variants other than classic and fused return ErrBatchVariant.
func DistCGBatch(c *simmpi.Comm, op *distmat.Op, b, x []float64, m DistBatchPreconditioner, k int, opt Options, fc *vecops.FlopCounter) (BatchStats, error) {
	if err := checkBatchOptions(k, opt); err != nil {
		return BatchStats{}, err
	}
	if opt.Variant == CGFused {
		return distCGFusedBatch(c, op, b, x, m, k, opt, fc)
	}
	nl := op.LZ.NLocal()
	opt = opt.withDefaults(globalLen(c, nl))
	if len(b) != nl*k || len(x) != nl*k {
		panic(fmt.Sprintf("krylov: DistCGBatch local block length %d/%d, want %d (k=%d)", len(b), len(x), nl*k, k))
	}
	ws := opt.Work
	if ws == nil {
		ws = &Workspace{}
	}
	r, z, d, q := ws.take4(nl * k)
	copy(r, b)
	scratch := distmat.NewBatchDistVec(op.LZ, k)

	bs := BatchStats{K: k, Cols: make([]Stats, k), Broken: make([]bool, k)}
	ctl := newBatchCtl(k)
	norm0 := make([]float64, k)
	rho := make([]float64, k)
	alpha := make([]float64, k)
	negAlpha := make([]float64, k)
	beta := make([]float64, k)
	tmp := make([]float64, k)

	distmat.DotBatchDist(c, r, r, k, nil, tmp, fc)
	for col := 0; col < k; col++ {
		norm0[col] = math.Sqrt(tmp[col])
		if norm0[col] == 0 {
			for i := 0; i < nl; i++ {
				x[i*k+col] = 0
			}
			bs.Cols[col].Converged = true
			ctl.freeze(col)
		}
	}
	if ctl.done() {
		return batchResult(bs, 0, nil)
	}
	m.ApplyBatch(c, r, z, k, ctl.mask(), fc)
	copy(d, z)
	distmat.DotBatchDist(c, r, z, k, ctl.mask(), rho, fc)

	for iter := 1; iter <= opt.MaxIter; iter++ {
		if canceled(c, opt.Ctx) {
			return batchResult(bs, iter, opt.Ctx)
		}
		op.MulMat(c, d, q, k, ctl.mask(), scratch, fc)
		distmat.DotBatchDist(c, d, q, k, ctl.mask(), tmp, fc)
		for _, col := range append([]int(nil), ctl.active...) {
			// tmp holds Allreduce results, identical on every rank, so the
			// per-column freeze decisions are collective by construction.
			if badCurv(tmp[col]) {
				bs.Broken[col] = true
				ctl.freeze(col)
				continue
			}
			alpha[col] = rho[col] / tmp[col]
			negAlpha[col] = -alpha[col]
		}
		if ctl.done() {
			break
		}
		vecops.AxpyBatch(alpha, d, x, k, ctl.mask(), fc)
		vecops.AxpyBatch(negAlpha, q, r, k, ctl.mask(), fc)
		distmat.DotBatchDist(c, r, r, k, ctl.mask(), tmp, fc)
		bs.Iterations = iter
		for _, col := range append([]int(nil), ctl.active...) {
			st := &bs.Cols[col]
			st.Iterations = iter
			st.RelResidual = math.Sqrt(tmp[col]) / norm0[col]
			if nonfinite(tmp[col]) {
				bs.Broken[col] = true
				ctl.freeze(col)
				continue
			}
			if st.RelResidual <= opt.Tol {
				st.Converged = true
				ctl.freeze(col)
			}
		}
		if ctl.done() {
			break
		}
		m.ApplyBatch(c, r, z, k, ctl.mask(), fc)
		distmat.DotBatchDist(c, r, z, k, ctl.mask(), tmp, fc)
		for _, col := range append([]int(nil), ctl.active...) {
			if nonfinite(tmp[col]) {
				bs.Broken[col] = true
				ctl.freeze(col)
				continue
			}
			beta[col] = tmp[col] / rho[col]
			rho[col] = tmp[col]
		}
		vecops.XpayBatch(z, beta, d, k, ctl.mask(), fc)
	}
	return batchResult(bs, 0, nil)
}

// distCGFusedBatch is the batched fused-reduction (Chronopoulos–Gear)
// loop: one AllreduceSum of 3k values per iteration — the collective call
// count of one scalar fused solve, serving all k columns. Each column runs
// its own α/β/γ recurrence; column c is bit-identical to DistCGFused on
// column c alone. The SpMM uses the blocking schedule (its metered traffic
// is identical to the overlap schedule the scalar loop uses, byte for
// byte and message for message).
func distCGFusedBatch(c *simmpi.Comm, op *distmat.Op, b, x []float64, m DistBatchPreconditioner, k int, opt Options, fc *vecops.FlopCounter) (BatchStats, error) {
	nl := op.LZ.NLocal()
	opt = opt.withDefaults(globalLen(c, nl))
	if len(b) != nl*k || len(x) != nl*k {
		panic(fmt.Sprintf("krylov: distCGFusedBatch local block length %d/%d, want %d (k=%d)", len(b), len(x), nl*k, k))
	}
	ws := opt.Work
	if ws == nil {
		ws = &Workspace{}
	}
	r, u, w, p, s := ws.take5(nl * k)
	scratch := distmat.NewBatchDistVec(op.LZ, k)
	copy(r, b)
	vecops.Fill(p, 0)
	vecops.Fill(s, 0)

	bs := BatchStats{K: k, Cols: make([]Stats, k), Broken: make([]bool, k)}
	ctl := newBatchCtl(k)
	norm0 := make([]float64, k)
	gamma := make([]float64, k)
	alpha := make([]float64, k)
	beta := make([]float64, k)
	gammaL := make([]float64, k)
	deltaL := make([]float64, k)
	rrL := make([]float64, k)
	g := make([]float64, 3*k)

	// Setup pass over every column, like the scalar loop: the zero-RHS and
	// non-SPD checks come out of the first collective.
	m.ApplyBatch(c, r, u, k, nil, fc)
	op.MulMat(c, u, w, k, nil, scratch, fc)
	vecops.Dot2Batch(r, u, w, k, nil, gammaL, deltaL, fc)
	vecops.DotBatch(r, r, k, nil, rrL, fc)
	copy(g[:k], gammaL)
	copy(g[k:2*k], deltaL)
	copy(g[2*k:], rrL)
	gr := c.AllreduceSum(g...)
	for col := 0; col < k; col++ {
		ga, de, rr := gr[col], gr[k+col], gr[2*k+col]
		if rr == 0 {
			for i := 0; i < nl; i++ {
				x[i*k+col] = 0
			}
			bs.Cols[col].Converged = true
			ctl.freeze(col)
			continue
		}
		norm0[col] = math.Sqrt(rr)
		if badCurv(ga) || badCurv(de) {
			bs.Broken[col] = true
			ctl.freeze(col)
			continue
		}
		gamma[col] = ga
		alpha[col] = ga / de
		beta[col] = 0
	}

	for iter := 1; iter <= opt.MaxIter && !ctl.done(); iter++ {
		if canceled(c, opt.Ctx) {
			return batchResult(bs, iter, opt.Ctx)
		}
		vecops.FusedCGUpdateBatch(alpha, beta, u, w, p, s, x, r, k, ctl.mask(), rrL, fc)
		m.ApplyBatch(c, r, u, k, ctl.mask(), fc)
		op.MulMat(c, u, w, k, ctl.mask(), scratch, fc)
		vecops.Dot2Batch(r, u, w, k, ctl.mask(), gammaL, deltaL, fc)
		// Frozen columns contribute exact zeros so the collective stays a
		// fixed 3k values per iteration.
		for i := range g {
			g[i] = 0
		}
		for _, col := range ctl.active {
			g[col] = gammaL[col]
			g[k+col] = deltaL[col]
			g[2*k+col] = rrL[col]
		}
		gr := c.AllreduceSum(g...)
		bs.Iterations = iter
		for _, col := range append([]int(nil), ctl.active...) {
			gammaNew, de, rr := gr[col], gr[k+col], gr[2*k+col]
			st := &bs.Cols[col]
			st.Iterations = iter
			st.RelResidual = math.Sqrt(rr) / norm0[col]
			if nonfinite(rr) || nonfinite(gammaNew) {
				bs.Broken[col] = true
				ctl.freeze(col)
				continue
			}
			if st.RelResidual <= opt.Tol {
				st.Converged = true
				ctl.freeze(col)
				continue
			}
			betaNew := gammaNew / gamma[col]
			denom := de - betaNew*gammaNew/alpha[col]
			if badCurv(denom) {
				bs.Broken[col] = true
				ctl.freeze(col)
				continue
			}
			beta[col] = betaNew
			alpha[col] = gammaNew / denom
			gamma[col] = gammaNew
		}
	}
	return batchResult(bs, 0, nil)
}
