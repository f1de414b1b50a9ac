// Package fsaicomm is a from-scratch Go implementation of the
// Communication-aware Factorized Sparse Approximate Inverse preconditioner
// (FSAIE-Comm) of Laut, Casas and Borrell (HPDC '22), together with the
// FSAI and FSAIE baselines, a distributed Conjugate Gradient solver over a
// simulated message-passing runtime, and the infrastructure used to
// reproduce the paper's evaluation.
//
// The package exposes two entry points:
//
//   - SolveDistributed distributes the matrix over a simulated cluster of
//     message-passing ranks (goroutines), builds the selected
//     preconditioner variant with communication-aware pattern extension and
//     optional dynamic load-balancing filter, runs distributed CG, and
//     reports iteration counts and metered communication volumes.
//   - Solve is the same solve on a single process (the shared-memory case,
//     where FSAIE and FSAIE-Comm coincide): a world of one rank, with the
//     same answer, meters and modeled time SolveDistributed gives at Ranks 1.
//
// Every entry — these two, BuildPreconditioner, Prepare and the batched
// solves — sets up with Prepare and solves with one rank job per rank.
//
// Matrices are CSR (see NewCOO / ReadMatrixMarket to build them). All
// lower-level machinery lives in internal/ packages; cmd/fsaibench drives
// the full paper reproduction.
package fsaicomm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"fsaicomm/internal/archmodel"
	"fsaicomm/internal/core"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/mprun"
	"fsaicomm/internal/partition"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
)

// Matrix is a sparse matrix in CSR form.
type Matrix = sparse.CSR

// COO is a coordinate-format builder for matrices.
type COO = sparse.COO

// NewCOO returns an empty coordinate builder with the given shape.
func NewCOO(rows, cols int) *COO { return sparse.NewCOO(rows, cols) }

// ReadMatrixMarket parses a Matrix Market stream ("coordinate real
// general|symmetric") into a Matrix.
func ReadMatrixMarket(r io.Reader) (*Matrix, error) { return sparse.ReadMatrixMarket(r) }

// WriteMatrixMarket writes a matrix in Matrix Market coordinate form.
func WriteMatrixMarket(w io.Writer, m *Matrix) error { return sparse.WriteMatrixMarket(w, m) }

// Method selects the preconditioner variant.
type Method = core.Method

// Preconditioner variants, in the order the paper evaluates them.
const (
	// FSAI is the baseline factorized sparse approximate inverse on the
	// lower-triangular pattern of A.
	FSAI = core.FSAI
	// FSAIE adds cache-friendly local pattern extension.
	FSAIE = core.FSAIE
	// FSAIEComm adds communication-aware halo extension (the paper's
	// contribution).
	FSAIEComm = core.FSAIEComm
	// SPAI is the adaptive Grote–Huckle sparse approximate inverse: an
	// explicit right inverse M ≈ A⁻¹ for general (nonsymmetric) matrices,
	// applied inside restarted GMRES rather than CG. Requires Solver
	// SolverGMRES.
	SPAI = core.SPAI
)

// FilterStrategy selects static (same Filter everywhere) or dynamic
// (per-process bisection, Algorithm 4) filtering.
type FilterStrategy = core.FilterStrategy

// Filtering strategies.
const (
	StaticFilter  = core.StaticFilter
	DynamicFilter = core.DynamicFilter
)

// CGVariant selects the communication structure of the distributed CG loop.
type CGVariant = krylov.CGVariant

// Distributed CG variants.
const (
	// CGClassic is the textbook loop: three reductions per iteration.
	CGClassic = krylov.CGClassic
	// CGFused is the fused-reduction (Chronopoulos–Gear) loop: one batched
	// Allreduce per iteration.
	CGFused = krylov.CGFused
	// CGPipelined is the pipelined (Ghysels–Vanroose) loop: one blocking
	// Allreduce per iteration, as CGFused, over a deeper recurrence that
	// buys nothing on a runtime whose collectives all block; measured
	// slower than CGClassic (DESIGN.md §4d).
	CGPipelined = krylov.CGPipelined
)

// ParseCGVariant parses "classic", "fused" or "pipelined" (the -cg flag
// spellings of the command-line tools).
func ParseCGVariant(s string) (CGVariant, error) { return krylov.ParseCGVariant(s) }

// Solver selects the Krylov loop of a solve.
type Solver = krylov.Solver

// Krylov solvers.
const (
	// SolverCG is preconditioned conjugate gradients — the default, valid
	// for the symmetric positive definite systems of the FSAI family.
	SolverCG = krylov.SolverCG
	// SolverGMRES is restarted GMRES with modified Gram–Schmidt, valid for
	// general square systems. Pairs with Method SPAI (the right inverse is
	// the preconditioner GMRES applies).
	SolverGMRES = krylov.SolverGMRES
)

// ParseSolver parses the -solver flag spellings "cg" and "gmres" (empty
// string = cg).
func ParseSolver(s string) (Solver, error) { return krylov.ParseSolver(s) }

// Precision selects the value width of the preconditioner factors and the
// operator inside the solve (see Options.Precision).
type Precision = krylov.Precision

// Solve precisions.
const (
	// FP64 is full double precision throughout — the default.
	FP64 = krylov.FP64
	// FP32 stores the factor (and operator) values in float32 and wraps the
	// CG loop in an FP64 iterative-refinement outer loop: halo traffic
	// halves while the refinement recovers the FP64 residual target.
	FP32 = krylov.FP32
)

// ParsePrecision parses the -precision flag spellings "fp64" and "fp32"
// (empty string = fp64).
func ParsePrecision(s string) (Precision, error) { return krylov.ParsePrecision(s) }

// ParseMethod parses the -method flag spellings: "fsai", "fsaie",
// "fsaie-comm" (also accepted: "fsaiecomm") or "spai", case-insensitively.
// The empty string means "caller did not say" and resolves to FSAIEComm, the
// default the command-line tools and the serving layer's request decoder
// share.
func ParseMethod(s string) (Method, error) {
	switch strings.ToLower(s) {
	case "":
		return FSAIEComm, nil
	case "fsai":
		return FSAI, nil
	case "fsaie":
		return FSAIE, nil
	case "fsaie-comm", "fsaiecomm":
		return FSAIEComm, nil
	case "spai":
		return SPAI, nil
	default:
		return FSAI, fmt.Errorf("fsaicomm: unknown method %q (want fsai, fsaie, fsaie-comm or spai)", s)
	}
}

// IterTrace is one rank's per-iteration solver telemetry (relative
// residual, α/β, communication deltas), recorded when Options.Trace is set.
type IterTrace = krylov.IterTrace

// IterRecord is one iteration's telemetry row.
type IterRecord = krylov.IterRecord

// CommDelta is a rank's communication traffic between two trace points.
type CommDelta = krylov.CommDelta

// OverlapReport is the per-window breakdown of the modeled solve time:
// compute, and the α–β seconds of each communication window.
type OverlapReport = archmodel.OverlapReport

// WindowReport is one communication window's share of an OverlapReport.
type WindowReport = archmodel.WindowReport

// RankWaits counts blocking waits of rank goroutines by how they ended.
type RankWaits = simmpi.Waits

// SolveTotals are the totals every solve reports, scalar or batched: the
// world it ran on and the build of the preconditioner it used, the
// refinement steps, the solve phase's communication summed over ranks, how
// the ranks' blocking waits ended, and the wall clock. Result and
// BatchResult embed it, so res.CommBytes or res.SolveTime read the same on
// either, and whoever sums solves (the serving layer's /metrics) sums one
// type.
type SolveTotals struct {
	// Ranks is the number of processes used (1 for Solve).
	Ranks int
	// PctNNZIncrease is the preconditioner pattern growth versus the FSAI
	// baseline pattern (the paper's "% NNZ"). ImbalanceIndex is avg/max
	// per-rank preconditioner entries (1 = balanced, as one rank always is).
	PctNNZIncrease float64
	ImbalanceIndex float64
	// Refinements counts the FP64 iterative-refinement steps of a
	// mixed-precision (Options.Precision FP32) solve; Iterations then counts
	// the total inner iterations across all steps. Zero for FP64 solves.
	Refinements int
	// CommBytes is the total point-to-point traffic during the solve phase
	// (0 on one rank, which has no peer); CommMessages the point-to-point
	// message count.
	// A batch pays them once for all its columns: divide by len(Cols) for
	// the per-RHS amortized cost the batch exists to shrink.
	CommBytes    int64
	CommMessages int64
	// CollectiveCalls and CollectiveBytes are the aggregate collective
	// totals over all ranks of the solve phase, from the simulated runtime's
	// meter; a one-process solve reports what its one rank meters.
	CollectiveCalls, CollectiveBytes int64
	// Waits is how the ranks' blocking waits ended, summed over ranks: what
	// they waited for there at first look, arrived while they polled, or
	// after they went to sleep (each sleep costs a wake-up). It tells who
	// arrived first, not what the program did: no two runs need agree on it.
	Waits RankWaits
	// SetupTime and SolveTime are wall-clock durations of preconditioner
	// construction and the Krylov loop. SetupTime is 0 for a Prepared solve,
	// whose set-up was paid in Prepare.
	SetupTime, SolveTime time.Duration
}

// Result reports a solve.
type Result struct {
	// X is the solution vector (original row order).
	X []float64
	// Iterations and Converged report the CG run; RelResidual is the final
	// relative residual.
	Iterations  int
	Converged   bool
	RelResidual float64
	SolveTotals
	// CommBytesPerIteration is the per-iteration point-to-point volume.
	CommBytesPerIteration float64
	// ModeledSolveTime is the solve time in seconds under the α–β cost model
	// of the selected architecture profile (Options.Arch): compute plus
	// every halo update and reduction waited out in full, as every loop
	// blocks on each. It is a model claim; SolveTime is the wall clock. A
	// one-process solve models its one rank.
	ModeledSolveTime float64
	// Phases is the per-window breakdown of ModeledSolveTime (worst rank,
	// whole solve): the compute time and, per communication window ("halo",
	// "reduction"), its α–β time. Phases.TotalSec == ModeledSolveTime
	// exactly.
	Phases OverlapReport
	// Trace is the per-iteration telemetry when Options.Trace is set (rank
	// 0's view in distributed solves), nil otherwise.
	Trace *IterTrace
}

// ErrNotSPD is returned when the input matrix is detectably not symmetric
// positive definite.
var ErrNotSPD = errors.New("fsaicomm: matrix is not symmetric positive definite")

// ErrCanceled is wrapped by the errors the context-aware entry points
// return when the supplied context is canceled (or its deadline passes)
// mid-solve. The partial Result accumulated so far is returned alongside
// the error.
var ErrCanceled = krylov.ErrCanceled

// ErrRankLost is wrapped by the error a "tcp" solve returns when a rank's
// worker process died or became unreachable. It costs the one solve: the
// next one, on the same Prepared too, runs on freshly started workers.
var ErrRankLost = simmpi.ErrRankLost

// ErrBreakdown is wrapped by the errors the solve entry points return when
// the CG recurrence breaks down (NaN/Inf, or non-positive curvature on a
// matrix that is not positive definite). The loop stops at the detecting
// iteration — on every rank of a distributed solve, at the same iteration —
// instead of spinning to MaxIter, and the partial Result so far is returned
// alongside the error.
var ErrBreakdown = krylov.ErrBreakdown

// checkSolverMatrix enforces the solver's matrix requirements at the
// boundary: the CG family needs symmetry (an FSAI factor pair of a
// nonsymmetric matrix is meaningless and CG would break down anyway), while
// GMRES accepts any square matrix. The CG rejection wraps both ErrNotSPD
// (what is wrong with the matrix) and ErrInvalidOptions (the fix is an
// options change: Method SPAI with Solver SolverGMRES), so both errors.Is
// classifications hold.
func checkSolverMatrix(a *Matrix, solver Solver) error {
	if solver == SolverGMRES {
		return nil
	}
	if !a.IsSymmetric(1e-10) {
		return fmt.Errorf("%w: pattern or values asymmetric (%w: nonsymmetric systems solve with Method SPAI and Solver SolverGMRES)",
			ErrNotSPD, ErrInvalidOptions)
	}
	return nil
}

// Solve runs a preconditioned Krylov solve A·x = b on a single process: the
// distributed solve on a world of one rank, which answers what
// SolveDistributed answers at Ranks 1 — x, iterations, meters and
// ModeledSolveTime, under every CGVariant. Transport is ignored, since one
// process has no peer to reach.
func Solve(a *Matrix, b []float64, opt Options) (*Result, error) {
	return SolveContext(context.Background(), a, b, opt)
}

// SolveContext is Solve with cancellation: the Krylov loop checks ctx once
// per iteration and, when it fires, returns the partial Result so far
// together with an ErrCanceled-wrapped error. It is BuildPreconditioner
// followed by SolveWith; Result.SetupTime is the build.
func SolveContext(ctx context.Context, a *Matrix, b []float64, opt Options) (*Result, error) {
	setup, err := opt.setUp(a, false)
	if err == nil {
		err = checkRHS([][]float64{b}, a.Rows)
	}
	if err != nil {
		return nil, err
	}
	p, err := buildPreconditioner(a, setup, opt.Workers)
	if err != nil {
		return nil, err
	}
	return p.solve(ctx, b, opt.SolveOptions())
}

// setUp checks a set-up of a under o — every field, every combination for
// a batched solve or not, and the matrix — before any work, and returns the
// canonical set-up group.
func (o Options) setUp(a *Matrix, batch bool) (Options, error) {
	if err := o.check(batch); err != nil {
		return Options{}, err
	}
	if err := checkInputMatrix(a, o.Solver); err != nil {
		return Options{}, err
	}
	return o.canonical(a), nil
}

// AutoRanks resolves a requested simulated-process count the way the
// facade does: nonzero requests pass through; zero selects from the matrix
// size (≈16k entries per rank, clamped to 2..12). The serving layer uses
// it to canonicalize cache keys before a preconditioner is built.
func AutoRanks(a *Matrix, requested int) int {
	if requested != 0 {
		return requested
	}
	ranks := a.NNZ() / 16384
	if ranks < 2 {
		ranks = 2
	}
	if ranks > 12 {
		ranks = 12
	}
	return ranks
}

// partitionRows computes the row distribution selected by the canonical
// opt.Partitioner.
func partitionRows(a *Matrix, opt Options, ranks int) ([]int, error) {
	switch {
	case ranks == 1: // every partitioner puts every row on rank 0
		return make([]int, a.Rows), nil
	case opt.Partitioner == "block":
		return partition.Block(a.Rows, ranks), nil
	case opt.Partitioner == "strip":
		return partition.Strip(a.Rows, ranks), nil
	default:
		g := partition.GraphFromMatrix(a)
		return partition.Multilevel(g, ranks, partition.Options{Seed: opt.PartitionSeed})
	}
}

// SolveDistributed partitions A over a simulated message-passing cluster,
// builds the selected preconditioner variant, and solves A·x = b with
// distributed CG. The returned X is in the caller's original row order.
func SolveDistributed(a *Matrix, b []float64, opt Options) (*Result, error) {
	return SolveDistributedContext(context.Background(), a, b, opt)
}

// SolveDistributedContext is SolveDistributed with cancellation: every rank
// of the distributed CG loop checks ctx once per iteration through a
// collective verdict, so all ranks stop at the same iteration boundary and
// the partial Result so far is returned with an ErrCanceled-wrapped error.
// It is Prepare, one Prepared.Solve and Close; Result.SetupTime is the
// Prepare.
func SolveDistributedContext(ctx context.Context, a *Matrix, b []float64, opt Options) (*Result, error) {
	p, err := prepareOnce(a, [][]float64{b}, opt, false)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	res, err := p.Solve(ctx, b, opt.SolveOptions())
	if res != nil {
		res.SetupTime = p.setup
	}
	return res, err
}

// runTransient runs one set of rank jobs, jobs[r] on rank r, on a mesh of
// worker processes started for them and closed after.
func runTransient(ctx context.Context, jobs []*mprun.JobSpec) ([]*mprun.RankOutcome, error) {
	mesh, err := mprun.Start(len(jobs))
	if err != nil {
		return nil, err
	}
	defer mesh.Close()
	return mesh.Run(ctx, jobs)
}

// rankFold is what every distributed result takes from the per-rank
// outcomes: rank 0's solver statistics, the totals both result types embed
// and the solution columns in the caller's row order. The Prepared the ranks
// adopted their operators from sets the totals' build metrics, the
// solve's architecture profile and, for a scalar solve, the per-rank cost
// inputs.
type rankFold struct {
	root  *mprun.RankOutcome
	tot   SolveTotals
	x     [][]float64
	costs []mprun.IterCostInputs
	prof  archmodel.Profile
}

// foldOutcomes is the single fold behind Result and BatchResult. The
// communication totals are sums of per-rank solve-phase snapshot deltas —
// charged synchronously on each rank, so they are deterministic and identical
// across transports. k is the number of interleaved solution columns.
func foldOutcomes(outs []*mprun.RankOutcome, oldToNew []int, k int) (*rankFold, error) {
	n := len(oldToNew)
	f := &rankFold{x: make([][]float64, k)}
	t := &f.tot
	px := make([]float64, n*k)
	for r, out := range outs {
		if out == nil {
			return nil, fmt.Errorf("fsaicomm: rank %d reported no outcome", r)
		}
		copy(px[out.Lo*k:out.Hi*k], out.XLocal)
		t.CommBytes += out.SolveComm.P2PBytes
		t.CommMessages += out.SolveComm.P2PMessages
		t.CollectiveCalls += out.SolveComm.CollectiveCalls
		t.CollectiveBytes += out.SolveComm.CollectiveBytes
		t.Waits.Ready += out.Waits.Ready
		t.Waits.Polled += out.Waits.Polled
		t.Waits.Parked += out.Waits.Parked
	}
	f.root = outs[0]
	t.Ranks, t.Refinements, t.SolveTime = len(outs), f.root.Refinements, time.Duration(f.root.SolveNanos)
	// Un-permute the (possibly partial, under cancellation) solution.
	for c := range f.x {
		col := make([]float64, n)
		for i := range col {
			col[i] = px[oldToNew[i]*k+c]
		}
		f.x[c] = col
	}
	return f, nil
}

// err is the error a result carries out alongside its partial solution.
func (f *rankFold) err() error {
	switch root := f.root; {
	case root.Canceled:
		return fmt.Errorf("fsaicomm: %w at iteration %d", krylov.ErrCanceled, root.Iterations)
	case root.Broken:
		return fmt.Errorf("fsaicomm: %w at iteration %d (rel residual %g)", krylov.ErrBreakdown, root.Iterations, root.RelResidual)
	}
	return nil
}

// result assembles the caller-facing Result of a scalar solve.
func (f *rankFold) result() (*Result, error) {
	root := f.root
	res := &Result{
		X:           f.x[0],
		Iterations:  root.Iterations,
		Converged:   root.Converged,
		RelResidual: root.RelResidual,
		SolveTotals: f.tot,
		Trace:       root.Trace,
	}
	if res.Iterations > 0 {
		res.CommBytesPerIteration = float64(res.CommBytes) / float64(res.Iterations)
	}
	res.Phases = mprun.ModeledPhases(f.prof, res.Iterations, f.costs)
	res.ModeledSolveTime = res.Phases.TotalSec
	return res, f.err()
}

// Architecture profiles for the experiment drivers (re-exported for
// cmd/fsaibench and the benches).
var (
	Skylake = archmodel.Skylake
	A64FX   = archmodel.A64FX
	Zen2    = archmodel.Zen2
)

// GeneratePoisson2D, GeneratePoisson3D and GenerateElasticity2D expose the
// most commonly useful synthetic SPD generators for quick experiments; the
// full catalog lives in internal/matgen and internal/testsets.
func GeneratePoisson2D(nx, ny int) *Matrix { return matgen.Poisson2D(nx, ny) }

// GeneratePoisson3D returns the 7-point Laplacian on an nx×ny×nz grid.
func GeneratePoisson3D(nx, ny, nz int) *Matrix { return matgen.Poisson3D(nx, ny, nz) }

// GenerateElasticity2D returns a 2-dof structural operator on an nx×ny grid.
func GenerateElasticity2D(nx, ny int, seed int64) *Matrix { return matgen.Elasticity2D(nx, ny, seed) }

// GenerateRHS returns a deterministic random right-hand side normalized to
// the matrix max norm (the paper's experimental setup).
func GenerateRHS(a *Matrix, seed int64) []float64 {
	return matgen.RandomRHS(a.Rows, seed, a.MaxNorm())
}

// GenerateConvectionDiffusion2D returns the 5-point upwind discretization of
// −Δu + p·(u_x + u_y) on an nx×ny grid: nonsymmetric for peclet > 0,
// increasingly skewed as peclet grows. The canonical SPAI+GMRES test
// operator.
func GenerateConvectionDiffusion2D(nx, ny int, peclet float64) *Matrix {
	return matgen.ConvectionDiffusion2D(nx, ny, peclet)
}

// GenerateNonsymCircuit returns a diagonally dominant nonsymmetric operator
// with directed-graph structure (a ring plus preferential-attachment arcs),
// resembling circuit-simulation matrices. Deterministic per seed.
func GenerateNonsymCircuit(n, avgDeg int, seed int64) *Matrix {
	return matgen.NonsymCircuit(n, avgDeg, seed)
}

// GenerateUnitRHS returns a deterministic random right-hand side scaled to
// unit 2-norm — the conventional GMRES setup, where the relative residual is
// measured against ‖b‖₂.
func GenerateUnitRHS(n int, seed int64) []float64 { return matgen.UnitRHS(n, seed) }

// RCM computes the reverse Cuthill–McKee ordering of a structurally
// symmetric matrix, returning oldToNew (the new index of old row i).
// Bandwidth-reducing orderings improve the index locality the cache-aware
// extension exploits.
func RCM(a *Matrix) ([]int, error) { return sparse.RCM(a) }

// PermuteSym applies the symmetric permutation P·A·Pᵀ.
func PermuteSym(a *Matrix, oldToNew []int) *Matrix { return sparse.PermuteSym(a, oldToNew) }

// Bandwidth returns the maximum |i−j| over stored entries.
func Bandwidth(a *Matrix) int { return sparse.Bandwidth(a) }
