package mprun

import (
	"context"
	"errors"
	"time"

	"fsaicomm/internal/archmodel"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/simmpi"
)

// rankOps are the operators a solve runs on: a with the factor pair g/gt
// (CG) or with the explicit inverse m (GMRES). misses is what an earlier job
// traced on them (nil: not known yet).
type rankOps struct {
	a, g, gt, m *distmat.Op
	misses      *TracedMisses
}

// adopt is step 1 of the job: the rank's operators.
func (j *JobSpec) adopt() rankOps {
	ad := j.Adopt
	if j.Solve.Solver == krylov.SolverGMRES {
		return rankOps{a: ad.A.op(), m: ad.M.op(), misses: ad.Misses}
	}
	return rankOps{a: ad.A.op(), g: ad.G.op(), gt: ad.GT.op(), misses: ad.Misses}
}

// dress is step 2a: whatever the solve asks of the operators beyond their
// values. It returns the float32 twin of A for the inner solves of a
// mixed-precision job (nil under FP64). Everything here is rank-local.
func (ops rankOps) dress(sp SolveParams) (aInner *distmat.Op) {
	if sp.Precision != krylov.FP32 {
		return nil
	}
	// The factors were built in FP64; narrow the rank-private operators (the
	// float32 value copy is cached on the shared Localized, built once
	// across solves).
	ops.g.SetF32(true)
	ops.gt.SetF32(true)
	// The inner A shares a's localized matrix but clones the plan, so the
	// inner halo runs half-width while a keeps the full-width schedule for
	// the outer FP64 residual.
	aInner = distmat.NewOpFromParts(ops.a.LZ, ops.a.Plan.Clone())
	aInner.SetF32(true)
	return aInner
}

// onTrace, when a test sets it, is called once per cache-simulator run.
var onTrace func()

func traced(m TracedMisses) TracedMisses {
	if onTrace != nil {
		onTrace()
	}
	return m
}

// cost is step 2b: the rank's cost-model inputs. The cache simulator walks
// every stored entry of the operators, so it runs only when no earlier job
// on them handed its result over.
func (ops rankOps) cost(sp SolveParams, nl, ranks int) IterCostInputs {
	prof := sp.Profile
	if prof == (archmodel.Profile{}) {
		prof = archmodel.Skylake
	}
	var miss TracedMisses
	switch {
	case ops.misses != nil:
		miss = *ops.misses
	case ops.m != nil:
		miss = traced(traceSPAIMisses(prof, ops.a, ops.m))
	default:
		miss = traced(traceMisses(prof, ops.a, ops.g, ops.gt))
	}
	if ops.m != nil {
		return assembleIterCost(miss, gmresLoop(sp.Restart), nl, ranks, ops.a, ops.m)
	}
	return assembleIterCost(miss, cgLoop(sp.Variant), nl, ranks, ops.a, ops.g, ops.gt)
}

// RunJob executes one rank of a distributed solve: adopt the operators,
// dress them for the solve, run one solve of width K and fold statistics,
// meters and clocks into the outcome. It is the single implementation behind
// both backends — the facade's goroutine ranks and the fsairank worker
// processes call exactly this. ws may carry a pooled workspace (nil
// allocates a fresh one); workspaces must never be shared between concurrent
// solves.
//
// ctx must be the same "all ranks or none" choice on every rank: the loops
// poll a non-nil ctx through a per-iteration collective verdict, which is
// itself a collective every rank must enter. A nil ctx makes the solve not
// cancellable, with no verdict collective.
func RunJob(ctx context.Context, c *simmpi.Comm, job *JobSpec, ws *krylov.Workspace) (*RankOutcome, error) {
	rank := c.Rank()
	if err := job.check(rank, c.Size()); err != nil {
		return nil, err
	}
	sp := job.Solve
	lo, hi := job.Layout.Range(rank)
	out := &RankOutcome{Rank: rank, Lo: lo, Hi: hi}
	ops := job.adopt()
	aInner := ops.dress(sp)
	if job.K == 0 { // the batched results carry no modeled time
		out.Cost = ops.cost(sp, hi-lo, c.Size())
	}

	if ws == nil {
		ws = &krylov.Workspace{}
	}
	opt := krylov.Options{Tol: sp.Tol, MaxIter: sp.MaxIter,
		Variant: sp.Variant, Restart: sp.Restart,
		Work:  ws,
		Trace: sp.Trace,
		Ctx:   ctx}
	t1 := time.Now()
	xl := make([]float64, len(job.B))
	var st krylov.Stats
	var err error
	// K = 0 takes the scalar view of the k-wide loops (every CG variant,
	// Stats with a trace), K ≥ 1 the batch entry points (classic and fused,
	// per-column outcome); one split preconditioner type serves both.
	switch k := job.K; {
	case ops.m != nil:
		st, err = krylov.DistGMRES(c, ops.a, job.B, xl, krylov.NewDistMatPrecond(ops.m), opt, nil)
	case k > 0:
		var bs krylov.BatchStats
		m := krylov.NewDistSplit(ops.g, ops.gt)
		if aInner != nil {
			bs, err = krylov.DistCGBatchRefined(c, ops.a, aInner, job.B, xl, m, k, opt, nil)
		} else {
			bs, err = krylov.DistCGBatch(c, ops.a, job.B, xl, m, k, opt, nil)
		}
		st = krylov.Stats{Iterations: bs.Iterations, Refinements: bs.Refinements}
		out.Batch = newBatchOutcome(bs)
	case aInner != nil:
		st, err = krylov.DistCGRefined(c, ops.a, aInner, job.B, xl, krylov.NewDistSplit(ops.g, ops.gt), opt, nil)
	default:
		st, err = krylov.DistCG(c, ops.a, job.B, xl, krylov.NewDistSplit(ops.g, ops.gt), opt, nil)
	}
	canceled := errors.Is(err, krylov.ErrCanceled)
	broken := errors.Is(err, krylov.ErrBreakdown)
	if err != nil && !errors.Is(err, krylov.ErrNoConvergence) && !canceled && !broken {
		return nil, err
	}
	out.SolveNanos = time.Since(t1).Nanoseconds()
	// Each rank's counters are charged synchronously on its own goroutine,
	// so the snapshot is exact and deterministic on every backend.
	out.SolveComm = c.Meter().RankSnapshot(rank)
	out.Waits = c.Waits()
	out.XLocal = xl
	out.Iterations = st.Iterations
	out.Converged = st.Converged
	out.RelResidual = st.RelResidual
	out.Canceled = canceled
	out.Broken = broken && job.K == 0
	out.Refinements = st.Refinements
	out.Trace = st.Trace
	return out, nil
}
