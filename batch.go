package fsaicomm

// Batched (multi-RHS) facade entry points. A batched solve runs one
// distributed CG loop over k right-hand sides at once: every halo update
// sends one coalesced message per neighbour (k× fewer messages than k
// scalar solves, the same bytes) and every reduction point is one k-wide
// collective (k× fewer collective calls). Per column the arithmetic is
// bit-identical to the scalar solve of that column alone — the batch buys
// throughput, never answers.

import (
	"context"
	"fmt"
	"time"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/vecops"
)

// ErrBatchVariant is wrapped by the error batched solves return when the
// selected CG variant has no batched loop (only CGClassic and CGFused do;
// the overlap and pipelined schedules exist to hide latency the batch
// already amortizes).
var ErrBatchVariant = krylov.ErrBatchVariant

// ColResult is one column's outcome of a batched solve.
type ColResult struct {
	// X is the column's solution vector (original row order).
	X []float64
	// Iterations, Converged and RelResidual report the column's own CG
	// recurrence: a column freezes the moment it converges, so columns
	// generally stop at different iteration counts.
	Iterations  int
	Converged   bool
	RelResidual float64
	// Broken reports a per-column breakdown (indefinite system, NaN): the
	// column froze without converging while its batch mates continued.
	Broken bool
}

// BatchResult reports a batched multi-RHS solve.
type BatchResult struct {
	// Cols holds the per-column outcomes, in the caller's RHS order.
	Cols []ColResult
	// Iterations is the batch loop's iteration count — the maximum over
	// columns, which is what the communication schedule paid for.
	Iterations int
	// Refinements counts the FP64 iterative-refinement steps of a
	// mixed-precision (Options.Precision FP32) batched solve; zero for FP64.
	Refinements int
	// Ranks is the number of processes used.
	Ranks int
	// PctNNZIncrease and ImbalanceIndex are the build metrics (see Result).
	PctNNZIncrease float64
	ImbalanceIndex float64
	// CommBytes, CommMessages, CollectiveCalls and CollectiveBytes are the
	// aggregate solve-phase communication totals over all ranks. Divide by
	// len(Cols) for the per-RHS amortized cost the batch exists to shrink.
	CommBytes       int64
	CommMessages    int64
	CollectiveCalls int64
	CollectiveBytes int64
	// IntraNodeBytes/IntraNodeMessages and InterNodeBytes/InterNodeMessages
	// split the point-to-point totals by the two-level topology (see
	// Result); zero under the flat default except InterNode* == Comm*.
	IntraNodeBytes    int64
	IntraNodeMessages int64
	InterNodeBytes    int64
	InterNodeMessages int64
	// Waits is how the ranks' blocking waits ended (see Result).
	Waits RankWaits
	// SetupTime and SolveTime are wall-clock phase durations (SetupTime is
	// 0 for Prepared.SolveBatch, whose setup was paid in Prepare).
	SetupTime, SolveTime time.Duration
}

// AllConverged reports whether every column converged.
func (r *BatchResult) AllConverged() bool {
	for i := range r.Cols {
		if !r.Cols[i].Converged {
			return false
		}
	}
	return true
}

// checkBatchRHS validates the RHS block shape shared by the batched entry
// points.
func checkBatchRHS(rhs [][]float64, n int) error {
	if len(rhs) < 1 {
		return fmt.Errorf("fsaicomm: batch needs at least 1 right-hand side")
	}
	for c := range rhs {
		if len(rhs[c]) != n {
			return fmt.Errorf("fsaicomm: rhs column %d length %d, want %d", c, len(rhs[c]), n)
		}
		if err := checkFiniteRHS(rhs[c]); err != nil {
			return fmt.Errorf("rhs column %d: %w", c, err)
		}
	}
	return nil
}

func checkBatchVariant(v CGVariant) error {
	switch v {
	case CGClassic, CGFused:
		return nil
	default:
		return fmt.Errorf("%w: variant %d (batched solves support classic and fused)", ErrBatchVariant, int(v))
	}
}

// packPermuted interleaves the RHS columns row-major in partition order:
// pb[p*k+c] = rhs[c][old row of permuted row p].
func packPermuted(rhs [][]float64, oldToNew []int) []float64 {
	k := len(rhs)
	if k == 1 {
		return distmat.PermuteVec(rhs[0], oldToNew)
	}
	pb := make([]float64, len(oldToNew)*k)
	for c := range rhs {
		col := distmat.PermuteVec(rhs[c], oldToNew)
		vecops.PackColumn(pb, col, k, c)
	}
	return pb
}

// SolveBatch runs one distributed CG solve for A·x_c = b_c over all columns
// of rhs at once, with full setup (partition + preconditioner build). See
// Prepared.SolveBatch for the cached-setup path and the batching semantics.
func SolveBatch(a *Matrix, rhs [][]float64, opt Options) (*BatchResult, error) {
	return SolveBatchContext(context.Background(), a, rhs, opt)
}

// SolveBatchContext is SolveBatch with cancellation: every rank checks ctx
// once per batch iteration through a collective verdict, so all ranks stop
// at the same iteration boundary and the partial per-column results come
// back with an ErrCanceled-wrapped error. It is Prepare, one
// Prepared.SolveBatch and Close; BatchResult.SetupTime is the Prepare.
func SolveBatchContext(ctx context.Context, a *Matrix, rhs [][]float64, opt Options) (*BatchResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := checkBatchVariant(opt.CGVariant); err != nil {
		return nil, err
	}
	if opt.Solver == SolverGMRES {
		return nil, fmt.Errorf("%w: batched solves support the CG family only (GMRES solves one right-hand side at a time)", ErrInvalidOptions)
	}
	if len(rhs) < 1 {
		return nil, checkBatchRHS(rhs, a.Rows)
	}
	if err := checkInput(a, rhs[0], opt.Solver); err != nil {
		return nil, err
	}
	if err := checkBatchRHS(rhs, a.Rows); err != nil {
		return nil, err
	}
	p, err := prepareOnce(a, opt)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	res, err := p.SolveBatch(ctx, rhs, perSolve(opt))
	if res != nil {
		res.SetupTime = p.setup
	}
	return res, err
}

// SolveBatch runs one batched distributed CG solve over all columns of rhs
// on the prepared system, paying the halo and collective schedule once for
// the whole batch instead of once per column. Per column the result is
// bit-identical to Prepared.Solve on that column alone. Only the classic
// and fused CG variants have batched loops (ErrBatchVariant otherwise).
// Safe for concurrent use like Solve. Cancellation stops all columns at
// the same batch iteration and returns the partial per-column results with
// an ErrCanceled-wrapped error.
func (p *Prepared) SolveBatch(ctx context.Context, rhs [][]float64, so SolveOptions) (*BatchResult, error) {
	if err := so.Validate(); err != nil {
		return nil, err
	}
	if err := checkBatchVariant(so.CGVariant); err != nil {
		return nil, err
	}
	if p.setupOpt.Solver == SolverGMRES {
		return nil, fmt.Errorf("%w: batched solves support the CG family only (this system was prepared for SPAI+GMRES)", ErrInvalidOptions)
	}
	if err := checkBatchRHS(rhs, p.n); err != nil {
		return nil, err
	}
	f, err := p.run(ctx, rhs, len(rhs), so, nil)
	if err != nil {
		return nil, err
	}
	return f.batchResult()
}

// batchResult assembles the caller-facing BatchResult of a batched solve.
func (f *rankFold) batchResult() (*BatchResult, error) {
	root, bo := f.root, f.root.Batch
	if bo == nil || bo.K != len(f.x) {
		return nil, fmt.Errorf("fsaicomm: rank 0 reported no %d-column batch outcome", len(f.x))
	}
	res := &BatchResult{
		Cols:              make([]ColResult, bo.K),
		Iterations:        root.Iterations,
		Refinements:       root.Refinements,
		Ranks:             len(f.costs),
		PctNNZIncrease:    f.pct,
		ImbalanceIndex:    f.imb,
		CommBytes:         f.comm.P2PBytes,
		CommMessages:      f.comm.P2PMessages,
		IntraNodeBytes:    f.comm.IntraP2PBytes,
		IntraNodeMessages: f.comm.IntraP2PMessages,
		InterNodeBytes:    f.comm.InterP2PBytes,
		InterNodeMessages: f.comm.InterP2PMessages,
		CollectiveCalls:   f.comm.CollectiveCalls,
		CollectiveBytes:   f.comm.CollectiveBytes,
		Waits:             f.waits,
		SolveTime:         time.Duration(root.SolveNanos),
	}
	for c := range res.Cols {
		res.Cols[c] = ColResult{
			X:           f.x[c],
			Iterations:  bo.Iterations[c],
			Converged:   bo.Converged[c],
			RelResidual: bo.RelResidual[c],
			Broken:      bo.Broken[c],
		}
	}
	return res, f.err()
}
