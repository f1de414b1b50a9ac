// Package fsaicomm is a from-scratch Go implementation of the
// Communication-aware Factorized Sparse Approximate Inverse preconditioner
// (FSAIE-Comm) of Laut, Casas and Borrell (HPDC '22), together with the
// FSAI and FSAIE baselines, a distributed Conjugate Gradient solver over a
// simulated message-passing runtime, and the infrastructure used to
// reproduce the paper's evaluation.
//
// The package exposes two entry points:
//
//   - Solve runs a preconditioned CG solve on a single process (the
//     shared-memory case, where FSAIE and FSAIE-Comm coincide).
//   - SolveDistributed distributes the matrix over a simulated cluster of
//     message-passing ranks (goroutines), builds the selected
//     preconditioner variant with communication-aware pattern extension and
//     optional dynamic load-balancing filter, runs distributed CG, and
//     reports iteration counts and metered communication volumes.
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
	"math"
	"strings"
	"sync"
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
	// CGClassicOverlap is the classic recurrence with the overlapped halo
	// SpMV schedule (bit-identical results).
	CGClassicOverlap = krylov.CGClassicOverlap
	// CGFused is the fused-reduction (Chronopoulos–Gear) loop: one batched
	// Allreduce per iteration.
	CGFused = krylov.CGFused
	// CGPipelined is the pipelined (Ghysels–Vanroose) loop: one nonblocking
	// Allreduce per iteration, overlapped with the next SpMV and
	// preconditioner application.
	CGPipelined = krylov.CGPipelined
)

// ParseCGVariant parses "classic", "classic-overlap", "fused" or
// "pipelined" (the -cg flag spellings of the command-line tools).
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
// compute, always-exposed communication, and per-window raw / hidden /
// exposed seconds under the overlap-credit model.
type OverlapReport = archmodel.OverlapReport

// WindowReport is one communication window's share of an OverlapReport.
type WindowReport = archmodel.WindowReport

// RankWaits counts blocking waits of rank goroutines by how they ended.
type RankWaits = simmpi.Waits

// Options configures a solve.
type Options struct {
	// Method selects FSAI, FSAIE, FSAIEComm or SPAI. The zero value is FSAI;
	// ParseMethod("") resolves the command-line default FSAIEComm. SPAI is
	// the nonsymmetric axis and requires Solver SolverGMRES (and vice versa —
	// Validate enforces the coupling both ways).
	Method Method
	// Solver selects the Krylov loop: SolverCG (default; the FSAI family)
	// or SolverGMRES (restarted GMRES, required by and requiring Method
	// SPAI). GMRES runs the classic blocking schedule in FP64 only.
	Solver Solver
	// Restart is the GMRES restart length m (cycle length of the rebuilt
	// Krylov basis). Zero selects 30. Ignored by the CG solvers.
	Restart int
	// SPAISteps, SPAIAdd and SPAIEpsilon shape the adaptive SPAI build
	// (Method SPAI only): SPAISteps rounds of pattern enrichment adding at
	// most SPAIAdd entries per column per round, stopping a column once its
	// least-squares residual drops below SPAIEpsilon (0 selects 0.4; the
	// static pattern is SPAISteps 0). PatternLevel doubles as the SPAI base
	// pattern level: the pattern of (structure(A)+I)^level.
	SPAISteps   int
	SPAIAdd     int
	SPAIEpsilon float64
	// Filter is the initial Filter value for the post-extension filtering
	// (paper sweeps 0.01–0.2). Zero keeps every extension entry.
	Filter float64
	// Strategy selects static or dynamic filtering. Default static.
	Strategy FilterStrategy
	// LineBytes is the cache-line size steering the extension (64 for
	// Skylake/Zen 2, 256 for A64FX). Default 64.
	LineBytes int
	// Tol is the relative residual target. Default 1e-8 (the paper's
	// convergence criterion).
	Tol float64
	// MaxIter caps CG iterations. Default 10·n.
	MaxIter int
	// Ranks is the number of simulated processes for SolveDistributed.
	// Default chosen from the matrix size (≈16k entries per rank, 2..12).
	Ranks int
	// PatternLevel selects the base sparse pattern: 1 (default) is the
	// lower triangle of A; N > 1 uses the lower triangle of pattern(Ã^N),
	// the paper's "sparse level". Threshold is the tau dropping small
	// entries when forming Ã (0 keeps all).
	PatternLevel int
	Threshold    float64
	// PartitionSeed seeds the multilevel partitioner. Deterministic per
	// seed.
	PartitionSeed int64
	// Partitioner selects the row distribution for SolveDistributed:
	// "multilevel" (default; METIS-like recursive bisection), "block"
	// (contiguous equal row counts) or "strip" (round-robin; worst-case
	// halo, useful to stress-test communication).
	Partitioner string
	// Workers bounds the shared-memory worker pool for the row-parallel
	// preconditioner setup. For Solve, ≤ 0 means GOMAXPROCS. For
	// SolveDistributed, ≤ 0 means 1 worker per simulated rank (the ranks
	// themselves already run concurrently); set it explicitly to model the
	// paper's MPI×OpenMP hybrid.
	Workers int
	// CGVariant selects the distributed CG loop: CGClassic (default; three
	// reductions per iteration, blocking SpMV), CGClassicOverlap (classic
	// recurrence, overlapped halo SpMV), CGFused (one batched Allreduce per
	// iteration, overlapped SpMV, fused kernels) or CGPipelined (one
	// nonblocking Allreduce per iteration, hidden behind the next SpMV and
	// preconditioner application). Serial Solve ignores it. See
	// ParseCGVariant for the flag spellings.
	CGVariant CGVariant
	// Arch names the architecture profile for Result.ModeledSolveTime:
	// "skylake" (default), "a64fx" or "zen2". It only parameterizes the
	// cost model; LineBytes independently steers the pattern extension.
	Arch string
	// Trace records per-iteration solver telemetry into Result.Trace
	// (rank 0's view in distributed solves). Off by default; when off the
	// solve does no telemetry work.
	Trace bool
	// ResidualReplaceEvery > 0 makes the pipelined CG loop recompute the
	// true residual r = b − A·x every that-many iterations, arresting the
	// rounding drift of the pipelined recurrence on ill-conditioned
	// instances at the price of extra halo traffic (no extra collectives).
	// Zero disables replacement; other CG variants ignore it.
	ResidualReplaceEvery int
	// Transport selects the rank runtime for SolveDistributed: "sim" (the
	// default; in-process goroutine ranks over metered channels) or "tcp"
	// (one OS process per rank over a loopback TCP mesh, spawned by
	// re-executing the current binary — its main or TestMain must call
	// mprun.MaybeWorker, which cmd binaries and the facade tests do). Both
	// backends run the identical rank job and produce bit-identical results
	// and meters; "tcp" pays real process and socket overheads — the
	// processes are started for the solve and gone after it; a Prepared
	// keeps its own between solves. Serial Solve ignores it.
	Transport string
	// Nodes and RanksPerNode declare a two-level topology over the ranks:
	// Nodes contiguous blocks of RanksPerNode ranks each (mpirun's block
	// mapping). Setting either (the other is derived; both must multiply to
	// the rank count) splits the communication meters into intra-node vs
	// inter-node traffic and switches the halo exchange to node-aware
	// aggregation: cross-node values are combined into one message per node
	// pair through per-node leader ranks, collapsing the inter-node message
	// count from per-rank-pair to per-node-pair with bit-identical received
	// values. Zero/zero (the default) is the historical flat world — every
	// rank its own node, all point-to-point traffic counted inter-node.
	Nodes int
	// RanksPerNode is the number of ranks per node (see Nodes).
	RanksPerNode int
	// NoNodeAggregation keeps the flat per-rank halo schedule under a
	// declared topology: the meters still split intra vs inter traffic but
	// nothing is aggregated. This is the baseline the node-aware benchmarks
	// compare against; it has no effect on a flat topology.
	NoNodeAggregation bool
	// Precision selects the solve's value width: FP64 (default) or FP32.
	// Under FP32 the factors are still built in float64 and then narrowed to
	// float32 — together with a float32 view of A — and the CG loop runs as
	// the inner solve of an FP64 iterative-refinement outer loop: halo bytes
	// drop ~2×, the outer loop recomputes the true FP64 residual each step,
	// and the solve reaches the same Tol as pure FP64 (typically within a
	// small iteration overhead; Result.Refinements counts the outer steps).
	// Tolerances much below ~1e-13 can sit under the float32 representation
	// floor — the refinement then stops early and reports no convergence.
	// It is a set-up-level knob, here and not in SolveOptions, and part of
	// the serving layer's preconditioner cache key: the factors are built
	// in float64 either way and the rank job narrows its operators per
	// solve, but a system prepared for FP32 keeps the float32 values of A,
	// G and Gᵀ from Prepare on, and Prepared.SizeBytes charges them.
	Precision Precision
}

// MaxRanks bounds Options.Ranks — twice the largest count anything in the
// repository uses. A world costs ranks² channels on the sim transport and one
// OS process per rank on tcp, and the count arrives from outside (the /solve
// body), so it is capped rather than trusted.
const MaxRanks = 64

// ErrInvalidOptions is wrapped by the errors Validate returns for
// nonsensical option values, so callers (and the HTTP layer, which maps it
// to a 400 response) can classify them with errors.Is.
var ErrInvalidOptions = errors.New("fsaicomm: invalid options")

// Validate rejects nonsensical option combinations with a descriptive
// error instead of silently clamping them. It is the single validator
// shared by every facade entry point (Solve, SolveDistributed, Prepare,
// BuildPreconditioner) and by the fsaiserve request decoder. Zero values
// always pass: they mean "use the default". Negative tolerances, iteration
// caps, rank counts, filters and pattern levels, unknown methods,
// strategies, partitioners and architecture profiles all fail.
func (o Options) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidOptions, fmt.Sprintf(format, args...))
	}
	if o.Tol < 0 || math.IsNaN(o.Tol) {
		return fail("Tol %g is negative or NaN (0 selects the default 1e-8)", o.Tol)
	}
	if o.MaxIter < 0 {
		return fail("MaxIter %d is negative (0 selects the default 10·n)", o.MaxIter)
	}
	if o.Ranks < 0 || o.Ranks > MaxRanks {
		return fail("Ranks %d is outside 0..%d (0 selects an automatic rank count)", o.Ranks, MaxRanks)
	}
	if o.Filter < 0 || math.IsNaN(o.Filter) {
		return fail("Filter %g is negative or NaN (0 keeps every extension entry)", o.Filter)
	}
	if o.LineBytes < 0 {
		return fail("LineBytes %d is negative (0 selects 64)", o.LineBytes)
	}
	if o.PatternLevel < 0 {
		return fail("PatternLevel %d is negative (0 or 1 is the lower triangle of A)", o.PatternLevel)
	}
	if o.Threshold < 0 || math.IsNaN(o.Threshold) {
		return fail("Threshold %g is negative or NaN (0 keeps all entries)", o.Threshold)
	}
	if o.ResidualReplaceEvery < 0 {
		return fail("ResidualReplaceEvery %d is negative (0 disables replacement)", o.ResidualReplaceEvery)
	}
	if o.Nodes < 0 {
		return fail("Nodes %d is negative (0 means flat: one rank per node)", o.Nodes)
	}
	if o.RanksPerNode < 0 {
		return fail("RanksPerNode %d is negative (0 means flat: one rank per node)", o.RanksPerNode)
	}
	if o.Restart < 0 {
		return fail("Restart %d is negative (0 selects the default 30)", o.Restart)
	}
	if o.SPAISteps < 0 {
		return fail("SPAISteps %d is negative (0 keeps the static pattern)", o.SPAISteps)
	}
	if o.SPAIAdd < 0 {
		return fail("SPAIAdd %d is negative (0 selects the default 5)", o.SPAIAdd)
	}
	if o.SPAIEpsilon < 0 || math.IsNaN(o.SPAIEpsilon) {
		return fail("SPAIEpsilon %g is negative or NaN (0 selects the default 0.4)", o.SPAIEpsilon)
	}
	switch o.Method {
	case FSAI, FSAIE, FSAIEComm, SPAI:
	default:
		return fail("unknown method %d", int(o.Method))
	}
	switch o.Solver {
	case SolverCG, SolverGMRES:
	default:
		return fail("unknown solver %d (want SolverCG or SolverGMRES)", int(o.Solver))
	}
	// The solver and the preconditioner kind are coupled: SPAI is an explicit
	// right inverse only GMRES can apply, and GMRES has no use for the
	// factor pair of the FSAI family.
	if o.Method == SPAI && o.Solver != SolverGMRES {
		return fail("Method SPAI requires Solver SolverGMRES (SPAI is a right inverse for GMRES, not a CG factor pair)")
	}
	if o.Solver == SolverGMRES && o.Method != SPAI {
		return fail("Solver SolverGMRES requires Method SPAI (the FSAI family pairs with CG)")
	}
	if o.Solver == SolverGMRES {
		if o.CGVariant != CGClassic {
			return fail("GMRES has only the classic blocking schedule (leave CGVariant zero)")
		}
		if o.Precision == FP32 {
			return fail("FP32 iterative refinement is a CG-family feature; GMRES solves run FP64")
		}
	}
	switch o.Strategy {
	case StaticFilter, DynamicFilter:
	default:
		return fail("unknown filter strategy %d", int(o.Strategy))
	}
	switch o.Partitioner {
	case "", "multilevel", "block", "strip":
	default:
		return fail("unknown partitioner %q (want multilevel, block or strip)", o.Partitioner)
	}
	switch o.CGVariant {
	case CGClassic, CGClassicOverlap, CGFused, CGPipelined:
	default:
		return fail("unknown CG variant %d", int(o.CGVariant))
	}
	switch o.Transport {
	case "", "sim", "tcp":
	default:
		return fail("unknown transport %q (want sim or tcp)", o.Transport)
	}
	switch o.Precision {
	case FP64, FP32:
	default:
		return fail("unknown precision %d (want FP64 or FP32)", int(o.Precision))
	}
	if o.Arch != "" {
		if _, err := archmodel.ByName(o.Arch); err != nil {
			return fail("%v", err)
		}
	}
	return nil
}

// buildConfig is the set-up half of the options: what shapes the
// preconditioner's values and pattern, for every build (on one rank or
// many, FSAI family or SPAI; a method ignores the other's knobs).
func buildConfig(opt Options) core.Config {
	return core.Config{
		Method:       opt.Method,
		Filter:       opt.Filter,
		Strategy:     opt.Strategy,
		LineBytes:    opt.LineBytes,
		PatternLevel: opt.PatternLevel,
		Threshold:    opt.Threshold,
		Workers:      opt.Workers,
		SPAISteps:    opt.SPAISteps,
		SPAIAdd:      opt.SPAIAdd,
		SPAIEpsilon:  opt.SPAIEpsilon,
	}
}

// solveParams is the solve half: what a rank job needs to run the Krylov
// loop on the operators it adopts, with the node grouping resolved against
// the rank count and the architecture profile resolved by name.
func solveParams(opt Options, ranks int) (mprun.SolveParams, error) {
	topo, err := resolveTopology(ranks, opt.Nodes, opt.RanksPerNode)
	if err != nil {
		return mprun.SolveParams{}, err
	}
	prof := archmodel.Skylake
	if opt.Arch != "" {
		if prof, err = archmodel.ByName(opt.Arch); err != nil {
			return mprun.SolveParams{}, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
		}
	}
	return mprun.SolveParams{
		Solver:               opt.Solver,
		Restart:              opt.Restart,
		Tol:                  opt.Tol,
		MaxIter:              opt.MaxIter,
		Variant:              opt.CGVariant,
		Trace:                opt.Trace,
		ResidualReplaceEvery: opt.ResidualReplaceEvery,
		Profile:              prof,
		Precision:            opt.Precision,
		Nodes:                topo.Nodes,
		RanksPerNode:         topo.RanksPerNode,
		NoNodeAggregation:    opt.NoNodeAggregation,
	}, nil
}

func (o Options) withDefaults(n int) Options {
	if o.LineBytes == 0 {
		o.LineBytes = 64
	}
	if o.Tol == 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter == 0 {
		o.MaxIter = 10 * n
		if o.MaxIter < 100 {
			o.MaxIter = 100
		}
	}
	return o
}

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
	// per-rank preconditioner entries (1 = balanced; only meaningful for
	// distributed solves).
	PctNNZIncrease float64
	ImbalanceIndex float64
	// Refinements counts the FP64 iterative-refinement steps of a
	// mixed-precision (Options.Precision FP32) solve; Iterations then counts
	// the total inner iterations across all steps. Zero for FP64 solves.
	Refinements int
	// CommBytes is the total point-to-point traffic during the solve phase
	// (0 for serial solves); CommMessages the point-to-point message count.
	// A batch pays them once for all its columns: divide by len(Cols) for
	// the per-RHS amortized cost the batch exists to shrink.
	CommBytes    int64
	CommMessages int64
	// IntraNodeBytes/IntraNodeMessages and InterNodeBytes/InterNodeMessages
	// split the point-to-point totals by the two-level topology
	// (Options.Nodes/RanksPerNode): traffic between ranks on the same node vs
	// ranks on different nodes. Under the flat default every rank is its own
	// node, so all traffic is inter-node (Intra* stay 0) and
	// InterNodeBytes == CommBytes. The invariant
	// IntraNodeBytes+InterNodeBytes == CommBytes holds always.
	IntraNodeBytes    int64
	IntraNodeMessages int64
	InterNodeBytes    int64
	InterNodeMessages int64
	// CollectiveCalls and CollectiveBytes are the aggregate collective
	// totals over all ranks of the solve phase, from the simulated runtime's
	// meter (0 for serial solves).
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
	// of the selected architecture profile (Options.Arch), with overlap
	// credit for the communication-hiding CG variants. The simulated runtime
	// serializes ranks, so SolveTime cannot show an overlap win;
	// ModeledSolveTime is the number to compare CG variants by (DESIGN.md
	// §4d). Zero for serial solves.
	ModeledSolveTime float64
	// Phases is the per-window breakdown of ModeledSolveTime (worst rank,
	// whole solve): per communication window ("halo", "reduction"), the raw
	// α–β time, the credit hidden behind overlapped compute, and the exposed
	// remainder. Phases.TotalSec == ModeledSolveTime exactly. Zero value for
	// serial solves.
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

// checkInput is checkInputMatrix plus the checks of one right-hand side.
func checkInput(a *Matrix, b []float64, solver Solver) error {
	if err := checkInputMatrix(a, solver); err != nil {
		return err
	}
	if len(b) != a.Rows {
		return fmt.Errorf("fsaicomm: rhs length %d, want %d", len(b), a.Rows)
	}
	return checkFiniteRHS(b)
}

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

// checkFiniteRHS rejects right-hand sides with NaN/Inf entries: a single
// non-finite component makes every residual NaN, so the solve can only end
// in breakdown — reject it at the boundary (and before it can poison a
// content-addressed cache) instead.
func checkFiniteRHS(b []float64) error {
	for i, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: rhs[%d] = %g is not finite", ErrInvalidOptions, i, v)
		}
	}
	return nil
}

// Solve runs a preconditioned CG solve A·x = b on a single process.
func Solve(a *Matrix, b []float64, opt Options) (*Result, error) {
	return SolveContext(context.Background(), a, b, opt)
}

// SolveContext is Solve with cancellation: the CG loop checks ctx once per
// iteration and, when it fires, returns the partial Result so far together
// with an ErrCanceled-wrapped error. It is BuildPreconditioner followed by
// SolveWith.
func SolveContext(ctx context.Context, a *Matrix, b []float64, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := checkInput(a, b, opt.Solver); err != nil {
		return nil, err
	}
	p, err := buildPreconditioner(a, opt.withDefaults(a.Rows))
	if err != nil {
		return nil, err
	}
	return p.solve(ctx, b, opt)
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

// partitionRows computes the row distribution selected by opt.Partitioner.
func partitionRows(a *Matrix, opt Options, ranks int) ([]int, error) {
	switch opt.Partitioner {
	case "", "multilevel":
		g := partition.GraphFromMatrix(a)
		return partition.Multilevel(g, ranks, partition.Options{Seed: opt.PartitionSeed})
	case "block":
		return partition.Block(a.Rows, ranks), nil
	case "strip":
		return partition.Strip(a.Rows, ranks), nil
	default:
		return nil, fmt.Errorf("fsaicomm: unknown partitioner %q (want multilevel, block or strip)", opt.Partitioner)
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
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := checkInput(a, b, opt.Solver); err != nil {
		return nil, err
	}
	p, err := prepareOnce(a, opt)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	res, err := p.Solve(ctx, b, perSolve(opt))
	if res != nil {
		res.SetupTime = p.setup
	}
	return res, err
}

// resolveTopology maps a requested node grouping onto the resolved rank
// count. Both fields zero is the flat world; otherwise the missing side is
// derived and rank counts not divisible by the declared ranks-per-node are
// rejected with a descriptive error.
func resolveTopology(ranks, nodes, ranksPerNode int) (simmpi.Topology, error) {
	if nodes == 0 && ranksPerNode == 0 {
		return simmpi.Topology{}, nil
	}
	topo, err := simmpi.ResolveTopology(ranks, nodes, ranksPerNode)
	if err != nil {
		return simmpi.Topology{}, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	return topo, nil
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

// runRanks is the one way a distributed solve runs. It cuts job into one
// rank job per rank — each gets its rows of the permuted right-hand sides
// and the operators held for it — and executes them on the selected
// transport: "sim" (or empty) runs goroutine ranks over the in-process
// metered channels, "tcp" runs them on p's worker processes, one OS process
// per rank. Both run the identical mprun rank job, which is what makes their
// results and meters bit-identical, and both read the node grouping from the
// job itself. pools, when given, lends each sim rank a workspace for the
// solve (worker processes start fresh anyway).
func (p *Prepared) runRanks(ctx context.Context, transport string, job mprun.JobSpec, held []mprun.Operators, pools []sync.Pool, rhs [][]float64) (*rankFold, error) {
	ranks := job.Layout.NRanks()
	oldToNew := p.st.oldToNew
	pb := packPermuted(rhs, oldToNew)
	jobs := make([]*mprun.JobSpec, ranks)
	for r := range jobs {
		jobs[r] = job.ForRank(r, pb)
		jobs[r].Adopt = &held[r]
	}
	topo, err := job.Topology(ranks)
	if err != nil {
		return nil, err
	}
	var outs []*mprun.RankOutcome
	if transport == "tcp" {
		outs, err = p.runResident(ctx, jobs)
	} else {
		outs = make([]*mprun.RankOutcome, ranks)
		_, err = simmpi.RunTopo(ranks, time.Hour, topo, func(c *simmpi.Comm) error {
			var ws *krylov.Workspace
			if pools != nil {
				pool := &pools[c.Rank()]
				ws = pool.Get().(*krylov.Workspace)
				defer pool.Put(ws)
			}
			out, err := mprun.RunJob(ctx, c, jobs[c.Rank()], ws)
			outs[c.Rank()] = out
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	return foldOutcomes(outs, oldToNew, len(rhs), job.Solve)
}

// rankFold is what every distributed result takes from the per-rank
// outcomes: rank 0's solver statistics, the totals both result types embed,
// the solution columns in the caller's row order, the per-rank cost inputs,
// and the solve they came from. The totals' build metrics are those of the
// Prepared the ranks adopted their operators from, which sets them.
type rankFold struct {
	root  *mprun.RankOutcome
	tot   SolveTotals
	x     [][]float64
	costs []mprun.IterCostInputs
	sp    mprun.SolveParams
}

// foldOutcomes is the single fold behind Result and BatchResult. The
// communication totals are sums of per-rank solve-phase snapshot deltas —
// charged synchronously on each rank, so they are deterministic and identical
// across transports. k is the number of interleaved solution columns.
func foldOutcomes(outs []*mprun.RankOutcome, oldToNew []int, k int, sp mprun.SolveParams) (*rankFold, error) {
	n := len(oldToNew)
	f := &rankFold{x: make([][]float64, k), costs: make([]mprun.IterCostInputs, len(outs)), sp: sp}
	t := &f.tot
	px := make([]float64, n*k)
	for r, out := range outs {
		if out == nil {
			return nil, fmt.Errorf("fsaicomm: rank %d reported no outcome", r)
		}
		f.costs[r] = out.Cost
		copy(px[out.Lo*k:out.Hi*k], out.XLocal)
		t.CommBytes += out.SolveComm.P2PBytes
		t.CommMessages += out.SolveComm.P2PMessages
		t.IntraNodeBytes += out.SolveComm.IntraP2PBytes
		t.IntraNodeMessages += out.SolveComm.IntraP2PMessages
		t.InterNodeBytes += out.SolveComm.InterP2PBytes
		t.InterNodeMessages += out.SolveComm.InterP2PMessages
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
	res.ModeledSolveTime = mprun.ModeledSolveTime(f.sp.Profile, f.sp.Variant, res.Iterations, f.costs)
	res.Phases = mprun.ModeledPhases(f.sp.Profile, f.sp.Variant, res.Iterations, f.costs)
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
