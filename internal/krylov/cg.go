// Package krylov implements the Krylov solvers of the reproduction — the
// paper's preconditioned Conjugate Gradient in its classic, fused,
// pipelined, batched and mixed-precision forms, and restarted GMRES for the
// nonsymmetric axis — together with the preconditioner application
// interfaces the FSAI family plugs into. Every loop is written once, for
// the distributed setting of the paper's MPI parallelization: the matrix and
// vectors are distributed by rows, SpMV performs a halo update, and dot
// products reduce globally. There are five loop bodies: the classic and the
// fused CG recurrence, each k wide (batch.go, fused.go) — a scalar solve is
// the loop at width 1 — pipelined CG, restarted GMRES, and the FP64
// refinement wrapper around any inner solve (refined.go). A serial solve
// (CG, GMRES, SolveRefined) is the same loop on a one-rank world: a nil
// Comm, under which every reduction is its local value, and
// distmat.LocalOp, whose product reads the undistributed matrix in place.
package krylov

import (
	"context"
	"errors"
	"math"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/vecops"
)

// ErrNoConvergence is wrapped by solver errors when the iteration limit is
// reached before the residual tolerance.
var ErrNoConvergence = errors.New("krylov: no convergence within iteration limit")

// ErrCanceled is wrapped by solver errors when Options.Ctx is canceled (or
// its deadline passes) before the solve finishes. The partial Stats
// accumulated so far — iterations, residual, flops, trace — are still
// returned alongside the error.
var ErrCanceled = errors.New("krylov: solve canceled")

// ErrBreakdown is wrapped by solver errors when the CG recurrence breaks
// down: dᵀAd (or a recurrence denominator) is non-positive — the matrix or
// preconditioner is not SPD — or a residual/reduction scalar turns NaN/Inf.
// Every loop detects both conditions and stops immediately with the partial
// Stats accumulated so far, instead of iterating to MaxIter on poisoned
// arithmetic. In distributed solves the detection needs no extra collective:
// the scalars are Allreduce results, bitwise identical on every rank, so all
// ranks reach the same verdict at the same iteration.
var ErrBreakdown = errors.New("krylov: CG breakdown")

// badCurv reports a broken-down curvature dᵀAd: non-positive, NaN or Inf.
// (!(v > 0) is false for NaN, which is exactly the trap we want.)
func badCurv(v float64) bool { return !(v > 0) || math.IsInf(v, 1) }

// nonfinite reports NaN or ±Inf.
func nonfinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// globalLen returns the global problem size from a rank's local length (a
// nil Comm is the one-rank world).
func globalLen(c *simmpi.Comm, nl int) int {
	if c == nil {
		return nl
	}
	return int(c.AllreduceSumInt64(int64(nl))[0])
}

// canceled is the once-per-iteration cancellation check. Serial solves
// (c == nil) just poll the context. Distributed solves must exit their
// collectives in lockstep, so the decision is itself collective: each rank
// contributes its local context state to an AllreduceMax and every rank
// sees the same verdict — one rank observing cancellation stops all of
// them at the same iteration boundary. Passing a nil Ctx keeps the solve
// loops collective-free and byte-for-byte identical to their metered
// baselines; when a context is supplied, every rank of the solve must
// supply one.
func canceled(c *simmpi.Comm, ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	if c == nil {
		return ctx.Err() != nil
	}
	var flag int64
	if ctx.Err() != nil {
		flag = 1
	}
	return c.AllreduceMaxInt64(flag)[0] != 0
}

// Options controls a CG solve.
type Options struct {
	// Tol is the relative residual reduction target; the paper uses 1e-8
	// ("reduction of the initial residual by eight orders of magnitude").
	Tol float64
	// MaxIter caps iterations. Default 10·n.
	MaxIter int
	// RecordResiduals makes Stats.Residuals hold the relative residual
	// after every iteration (costs one float per iteration).
	RecordResiduals bool
	// Variant selects the communication structure of the distributed loop
	// (classic, classic-overlap, fused or pipelined). The zero value is
	// CGClassic. Ignored by the serial entry points.
	Variant CGVariant
	// Work, when non-nil, supplies the iteration vectors so repeated solves
	// allocate nothing in steady state. In distributed runs each rank must
	// pass its own Workspace.
	Work *Workspace
	// Trace records per-iteration telemetry (relative residual, α/β and the
	// rank's communication deltas) into Stats.Trace. Off by default; when
	// off the solve paths do no telemetry work and allocate nothing extra.
	Trace bool
	// Ctx, when non-nil, cancels the solve: every loop checks it once per
	// iteration and returns an ErrCanceled-wrapped error with the partial
	// Stats accumulated so far. In distributed solves the check is a
	// collective (an extra AllreduceMax per iteration), so all ranks of a
	// solve must either pass a context or none — and the communication
	// metering of a context-free solve is unchanged.
	Ctx context.Context
	// Restart is the GMRES restart length m — the Krylov basis is rebuilt
	// from the true residual every m inner iterations. Zero means 30.
	// Ignored by the CG solvers.
	Restart int
	// ResidualReplaceEvery > 0 makes the pipelined loop recompute r = b − A·x
	// (and the dependent recurrence vectors) every that-many iterations,
	// arresting the rounding drift of the deeply rearranged recurrence on
	// ill-conditioned instances at the price of extra halo traffic — no
	// extra collectives. Zero (the default) disables replacement. Ignored by
	// the other variants, whose recurrences track the true residual closely.
	ResidualReplaceEvery int
}

func (o Options) withDefaults(n int) Options {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10 * n
		if o.MaxIter < 100 {
			o.MaxIter = 100
		}
	}
	return o
}

// Stats reports the outcome of a solve.
type Stats struct {
	Iterations  int
	Converged   bool
	RelResidual float64 // final ‖r‖/‖r₀‖
	Flops       int64   // this rank's flops (global flops in serial runs)
	// Refinements is the number of FP64 iterative-refinement steps a
	// mixed-precision solve performed; 0 for plain FP64 solves. Iterations
	// then counts the total inner iterations across all steps.
	Refinements int
	// Residuals holds the per-iteration relative residuals when
	// Options.RecordResiduals is set.
	Residuals []float64
	// Trace is the rank's per-iteration telemetry when Options.Trace is set,
	// nil otherwise.
	Trace *IterTrace
}

// Preconditioner applies z ← M·r in a serial solve. Implementations must
// tolerate aliasing-free distinct r and z slices of equal length.
type Preconditioner interface {
	Apply(r, z []float64, fc *vecops.FlopCounter)
}

// Identity is the "no preconditioner" preconditioner.
type Identity struct{}

// Apply copies r into z.
func (Identity) Apply(r, z []float64, fc *vecops.FlopCounter) { copy(z, r) }

// Split applies the factorized approximate inverse z = Gᵀ(G·r), the
// preconditioning operation of FSAI/FSAIE/FSAIE-Comm in a serial solve. It
// applies through the one-rank operators of G and Gᵀ (distmat.LocalOp), so
// its products take the path a distributed apply takes, column runs
// included.
type Split struct {
	G     *sparse.CSR // the factor NewSplit was given
	g, gt *distmat.Op
	w     []float64
}

// NewSplit builds the split preconditioner from the FSAI factor G (lower
// triangular) and its transpose.
func NewSplit(g, gt *sparse.CSR) *Split {
	return &Split{G: g, g: distmat.LocalOp(g), gt: distmat.LocalOp(gt), w: make([]float64, g.Rows)}
}

// Apply computes z = Gᵀ(G·r).
func (s *Split) Apply(r, z []float64, fc *vecops.FlopCounter) {
	s.g.MulVec(nil, r, s.w, nil, fc)
	s.gt.MulVec(nil, s.w, z, nil, fc)
}

// CG solves A x = b with preconditioned conjugate gradients, starting from
// the zero initial guess (as the paper's experiments do). x is overwritten
// with the solution; pass a zeroed slice. It is DistCG on a one-rank world;
// Options.Variant is ignored, since the variants rearrange communication a
// single rank has none of.
func CG(a *sparse.CSR, b, x []float64, m Preconditioner, opt Options, fc *vecops.FlopCounter) (Stats, error) {
	opt.Variant = CGClassic
	op, pre := oneRank(a, m, &opt)
	return DistCG(nil, op, b, x, pre, opt, fc)
}

// oneRank returns a serial solve's matrix and preconditioner as the
// distributed loops take them: distmat.LocalOp(a), and m behind rankLocal
// (nil stays nil). Both live in the solve's workspace, so repeated solves of
// one system through a caller's Workspace allocate nothing.
func oneRank(a *sparse.CSR, m Preconditioner, opt *Options) (*distmat.Op, DistPreconditioner) {
	if opt.Work == nil {
		opt.Work = &Workspace{}
	}
	ws := opt.Work
	if ws.op == nil || ws.op.LZ.M != a {
		ws.op = distmat.LocalOp(a)
	}
	if m == nil {
		return ws.op, nil
	}
	ws.pre.m = m
	return ws.op, &ws.pre
}

// DistPreconditioner applies z_c ← M·r_c on the active columns of a rank's
// local block of k interleaved vectors (cols as in vecops: ascending, nil =
// all), communicating as needed; masked columns of z must be left
// untouched. It is the one preconditioner interface of the distributed
// loops: a scalar solve applies it at k = 1. Implementations are
// collective: every rank calls ApplyBatch the same number of times with the
// same mask.
type DistPreconditioner interface {
	ApplyBatch(c *simmpi.Comm, r, z []float64, k int, cols []int, fc *vecops.FlopCounter)
}

// DistIdentity is the distributed no-op preconditioner.
type DistIdentity struct{}

// ApplyBatch copies the active columns of r into z (no communication).
func (DistIdentity) ApplyBatch(_ *simmpi.Comm, r, z []float64, k int, cols []int, _ *vecops.FlopCounter) {
	if cols == nil {
		copy(z, r)
		return
	}
	for i := 0; i < len(r); i += k {
		for _, c := range cols {
			z[i+c] = r[i+c]
		}
	}
}

// rankLocal runs a serial preconditioner, which needs nothing of other
// ranks, as a distributed one: in place at k = 1, column by column on wider
// blocks. col holds one column in and out.
type rankLocal struct {
	m   Preconditioner
	col [2][]float64
}

func (l *rankLocal) ApplyBatch(_ *simmpi.Comm, r, z []float64, k int, cols []int, fc *vecops.FlopCounter) {
	if k == 1 {
		if cols == nil || len(cols) == 1 {
			l.m.Apply(r, z, fc)
		}
		return
	}
	rc, zc := grow(&l.col[0], len(r)/k), grow(&l.col[1], len(r)/k)
	column := func(c int) {
		vecops.UnpackColumn(rc, r, k, c)
		l.m.Apply(rc, zc, fc)
		vecops.PackColumn(z, zc, k, c)
	}
	if cols == nil {
		for c := 0; c < k; c++ {
			column(c)
		}
	}
	for _, c := range cols {
		column(c)
	}
}

// haloScratch returns *v when it fits k-wide products with lz and replaces
// it otherwise, so scratch vectors follow the width they are asked for.
func haloScratch(v **distmat.DistVec, lz *distmat.Localized, k int) *distmat.DistVec {
	if !(*v).Fits(lz, k) {
		*v = distmat.NewBatchDistVec(lz, k)
	}
	return *v
}

// DistSplit applies z = Gᵀ(G·r) with distributed G and Gᵀ, each with its own
// halo plan — the two preconditioning products of the paper, at any width:
// each performs one k-wide halo update (one message per neighbour). The
// scratch is sized by the first application and follows the width after.
type DistSplit struct {
	G, GT   *distmat.Op
	wG, wGT *distmat.DistVec
	interm  []float64
}

// NewDistSplit builds the distributed split preconditioner from the local
// operators for G and Gᵀ.
func NewDistSplit(g, gt *distmat.Op) *DistSplit { return &DistSplit{G: g, GT: gt} }

// NewDistSplitBatch is NewDistSplit with the scratch for batches of size k
// in place.
func NewDistSplitBatch(g, gt *distmat.Op, k int) *DistSplit {
	s := NewDistSplit(g, gt)
	s.scratch(k)
	return s
}

// scratch returns the intermediate block and the two product scratches at
// width k.
func (s *DistSplit) scratch(k int) (interm []float64, wG, wGT *distmat.DistVec) {
	return grow(&s.interm, s.G.LZ.NLocal()*k), haloScratch(&s.wG, s.G.LZ, k), haloScratch(&s.wGT, s.GT.LZ, k)
}

// ApplyBatch computes the local block of z = Gᵀ(G·r) on the active columns.
// At k = 1 the two products run in the send-then-compute schedule when the
// operators were built with the overlap view (distmat.WithOverlap); the
// result is bit-identical either way.
func (s *DistSplit) ApplyBatch(c *simmpi.Comm, r, z []float64, k int, cols []int, fc *vecops.FlopCounter) {
	interm, wG, wGT := s.scratch(k)
	s.G.MulMat(c, r, interm, k, cols, wG, fc)
	s.GT.MulMat(c, interm, z, k, cols, wGT, fc)
}

// Apply is ApplyBatch on one vector.
func (s *DistSplit) Apply(c *simmpi.Comm, r, z []float64, fc *vecops.FlopCounter) {
	s.ApplyBatch(c, r, z, 1, nil, fc)
}

// DistCG solves A x = b in the distributed setting. Every rank passes its
// local slices of b and x (x zeroed); all ranks receive identical Stats.
// The operator op must be built over the same layout as b/x. A nil Comm is
// the one-rank world (not under CGPipelined, whose reduction is
// nonblocking). It has no loop of its own: CGClassic and CGFused are the
// k-wide recurrences of DistCGBatch at width 1, where every k-wide kernel
// is its scalar counterpart; CGClassicOverlap is CGClassic on an operator
// that carries the overlap view, which a 1-wide product then takes, and
// CGFused dresses its operator the same way; CGPipelined dispatches to
// DistCGPipelined. The one column's outcome comes back as Stats, its
// breakdown as an ErrBreakdown-wrapped error.
func DistCG(c *simmpi.Comm, op *distmat.Op, b, x []float64, m DistPreconditioner, opt Options, fc *vecops.FlopCounter) (Stats, error) {
	if opt.Variant == CGPipelined {
		return DistCGPipelined(c, op, b, x, m, opt, fc)
	}
	if opt.Variant != CGClassic {
		op.EnsureOverlap()
	}
	return scalarResult(distCGWide(c, op, b, x, m, 1, opt, fc))
}
