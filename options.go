package fsaicomm

import (
	"errors"
	"fmt"
	"math"

	"fsaicomm/internal/archmodel"
	"fsaicomm/internal/core"
	"fsaicomm/internal/mprun"
)

// Options configures a solve. Every field belongs to one of three groups:
//
//   - the set-up group — Method, Solver, the SPAI knobs, Filter, Strategy,
//     LineBytes, Ranks, PatternLevel, Threshold, PartitionSeed, Partitioner
//     and Precision — shapes the partition and the preconditioner. Prepare
//     fixes it, Prepared.Options reports it in canonical form, and the
//     serving layer keys its cache of prepared systems by that form;
//   - the per-solve group is exactly the fields SolveOptions declares, what a
//     Prepared system takes per solve (Options.SolveOptions);
//   - the runtime group, Workers, sizes the set-up's worker pool and changes
//     no bit of any result.
//
// Validate checks every field and every combination of fields; each entry
// point runs the same checks, at the rank count it resolves, before it does
// any work.
type Options struct {
	// Method (set-up) selects FSAI, FSAIE, FSAIEComm or SPAI. The zero value
	// is FSAI; ParseMethod("") resolves the command-line default FSAIEComm.
	// SPAI is the nonsymmetric axis and requires Solver SolverGMRES (and vice
	// versa — Validate enforces the coupling both ways).
	Method Method
	// Solver (set-up) selects the Krylov loop: SolverCG (default; the FSAI
	// family) or SolverGMRES (restarted GMRES, required by and requiring
	// Method SPAI). GMRES runs the classic blocking schedule in FP64 only.
	Solver Solver
	// Restart (per-solve) is the GMRES restart length m (cycle length of the
	// rebuilt Krylov basis). Zero selects 30, at every entry point and on
	// every system, whatever an earlier solve used. Ignored by the CG solvers.
	Restart int
	// SPAISteps, SPAIAdd and SPAIEpsilon (set-up) shape the adaptive SPAI
	// build (Method SPAI only): SPAISteps rounds of pattern enrichment adding
	// at most SPAIAdd entries per column per round, stopping a column once
	// its least-squares residual drops below SPAIEpsilon (0 selects 0.4; the
	// static pattern is SPAISteps 0). PatternLevel doubles as the SPAI base
	// pattern level: the pattern of (structure(A)+I)^level.
	SPAISteps   int
	SPAIAdd     int
	SPAIEpsilon float64
	// Filter (set-up) is the initial Filter value for the post-extension
	// filtering (paper sweeps 0.01–0.2). Zero keeps every extension entry.
	Filter float64
	// Strategy (set-up) selects static or dynamic filtering. Default static.
	Strategy FilterStrategy
	// LineBytes (set-up) is the cache-line size steering the extension (64
	// for Skylake/Zen 2, 256 for A64FX): 0 selects 64, anything else must be
	// a positive multiple of 8.
	LineBytes int
	// Tol (per-solve) is the relative residual target. Default 1e-8 (the
	// paper's convergence criterion).
	Tol float64
	// MaxIter (per-solve) caps CG iterations. Default 10·n.
	MaxIter int
	// Ranks (set-up) is the number of simulated processes for
	// SolveDistributed. Default chosen from the matrix size (≈16k entries per
	// rank, 2..12; see AutoRanks). Solve and BuildPreconditioner build on
	// one rank.
	Ranks int
	// PatternLevel (set-up) selects the base sparse pattern: 1 (default) is
	// the lower triangle of A; N > 1 uses the lower triangle of
	// pattern(Ã^N), the paper's "sparse level". Threshold (set-up) is the tau
	// dropping small entries when forming Ã (0 keeps all).
	PatternLevel int
	Threshold    float64
	// PartitionSeed (set-up) seeds the multilevel partitioner. Deterministic
	// per seed.
	PartitionSeed int64
	// Partitioner (set-up) selects the row distribution for
	// SolveDistributed: "multilevel" (default; METIS-like recursive
	// bisection), "block" (contiguous equal row counts) or "strip"
	// (round-robin; worst-case halo, useful to stress-test communication).
	Partitioner string
	// Workers (runtime) bounds the shared-memory worker pool of each rank
	// for the row-parallel preconditioner setup. ≤ 0 means GOMAXPROCS on a
	// world of any size: its ranks are goroutines of one process, so a rank
	// that finishes its rows leaves its cores to the slower ones. Set it
	// explicitly to model the paper's MPI×OpenMP hybrid.
	Workers int
	// CGVariant (per-solve) selects the distributed CG loop: CGClassic
	// (default; three reductions per iteration, blocking SpMV), CGFused (one
	// batched Allreduce per iteration, blocking SpMV, fused kernels) or
	// CGPipelined (one Allreduce per iteration over the Ghysels–Vanroose
	// recurrence; measured slower than classic, DESIGN.md §4d). Every
	// product blocks on its halo exchange and every reduction blocks. A
	// one-process solve runs it on one rank, as SolveDistributed does at
	// Ranks 1. See ParseCGVariant for the flag spellings.
	CGVariant CGVariant
	// Arch (per-solve) names the architecture profile for
	// Result.ModeledSolveTime: "skylake" (default), "a64fx" or "zen2". It
	// only parameterizes the cost model; LineBytes independently steers the
	// pattern extension.
	Arch string
	// Trace (per-solve) records per-iteration solver telemetry into
	// Result.Trace (rank 0's view in distributed solves). Off by default;
	// when off the solve does no telemetry work.
	Trace bool
	// Transport (per-solve) selects the rank runtime for SolveDistributed:
	// "sim" (the default; in-process goroutine ranks over metered channels)
	// or "tcp" (one OS process per rank, spawned by re-executing the current
	// binary — its main or TestMain must call mprun.MaybeWorker, which cmd
	// binaries and the facade tests do; the ranks meet over loopback TCP,
	// which then only carries wake-ups and tells a lost rank, and every
	// message goes through shared-memory rings, see internal/tcpmpi). Both
	// backends run the identical rank job and produce bit-identical results
	// and meters; "tcp" pays real process and socket overheads — the
	// processes are started for the solve and gone after it; a Prepared
	// keeps its own between solves. Solve and SolveWith ignore it: one
	// process has no peer to reach.
	Transport string
	// Precision (set-up) selects the solve's value width: FP64 (default) or
	// FP32. Under FP32 the factors are still built in float64 and then
	// narrowed to float32 — together with a float32 view of A — and the CG
	// loop runs as the inner solve of an FP64 iterative-refinement outer
	// loop: halo bytes drop ~2×, the outer loop recomputes the true FP64
	// residual each step, and the solve reaches the same Tol as pure FP64
	// (typically within a small iteration overhead; Result.Refinements counts
	// the outer steps). Tolerances much below ~1e-13 can sit under the
	// float32 representation floor — the refinement then stops early and
	// reports no convergence. A system prepared for FP32 keeps the float32
	// values of A, G and Gᵀ from Prepare on, and Prepared.SizeBytes charges
	// them.
	Precision Precision
}

// SolveOptions are the per-solve group of Options, the one declaration of
// its fields: everything that does not change the partition or the
// preconditioner factors. Each field means what the Options field of its
// name means. A zero field selects its default, never a value an earlier
// solve or the Prepare-time Options used.
type SolveOptions struct {
	Tol     float64
	MaxIter int
	// CGVariant: a system prepared for SPAI+GMRES runs the classic blocking
	// schedule only.
	CGVariant CGVariant
	// Restart: zero selects 30.
	Restart int
	Arch    string
	Trace   bool
	// Transport: the first "tcp" solve of a Prepared starts the processes
	// and ships them the localized factors and halo schedules; they stay, so
	// later solves send a right-hand side and get a solution back, until
	// Prepared.Close.
	Transport string
}

// SolveOptions returns the per-solve group of o.
func (o Options) SolveOptions() SolveOptions {
	return SolveOptions{
		Tol:       o.Tol,
		MaxIter:   o.MaxIter,
		CGVariant: o.CGVariant,
		Restart:   o.Restart,
		Arch:      o.Arch,
		Trace:     o.Trace,
		Transport: o.Transport,
	}
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

func invalid(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidOptions, fmt.Sprintf(format, args...))
}

// Validate rejects nonsensical options with a descriptive error instead of
// silently clamping them: the set-up fields here, the per-solve ones by
// SolveOptions.Validate, then every combination of fields (SPAI ⇔ GMRES;
// GMRES with the classic schedule and FP64). Zero values always pass: they
// mean "use the default".
func (o Options) Validate() error { return o.check(false) }

// check is Validate for a batched solve or not.
func (o Options) check(batch bool) error {
	switch {
	case o.Ranks < 0 || o.Ranks > MaxRanks:
		return invalid("Ranks %d is outside 0..%d (0 selects an automatic rank count)", o.Ranks, MaxRanks)
	case o.Filter < 0 || math.IsNaN(o.Filter):
		return invalid("Filter %g is negative or NaN (0 keeps every extension entry)", o.Filter)
	case o.LineBytes < 0 || o.LineBytes%8 != 0:
		return invalid("LineBytes %d is not a positive multiple of 8 (0 selects 64)", o.LineBytes)
	case o.PatternLevel < 0:
		return invalid("PatternLevel %d is negative (0 or 1 is the lower triangle of A)", o.PatternLevel)
	case o.Threshold < 0 || math.IsNaN(o.Threshold):
		return invalid("Threshold %g is negative or NaN (0 keeps all entries)", o.Threshold)
	case o.SPAISteps < 0:
		return invalid("SPAISteps %d is negative (0 keeps the static pattern)", o.SPAISteps)
	case o.SPAIAdd < 0:
		return invalid("SPAIAdd %d is negative (0 selects the default 5)", o.SPAIAdd)
	case o.SPAIEpsilon < 0 || math.IsNaN(o.SPAIEpsilon):
		return invalid("SPAIEpsilon %g is negative or NaN (0 selects the default 0.4)", o.SPAIEpsilon)
	}
	switch o.Method {
	case FSAI, FSAIE, FSAIEComm, SPAI:
	default:
		return invalid("unknown method %d", int(o.Method))
	}
	switch o.Solver {
	case SolverCG, SolverGMRES:
	default:
		return invalid("unknown solver %d (want SolverCG or SolverGMRES)", int(o.Solver))
	}
	switch o.Strategy {
	case StaticFilter, DynamicFilter:
	default:
		return invalid("unknown filter strategy %d", int(o.Strategy))
	}
	switch o.Partitioner {
	case "", "multilevel", "block", "strip":
	default:
		return invalid("unknown partitioner %q (want multilevel, block or strip)", o.Partitioner)
	}
	switch o.Precision {
	case FP64, FP32:
	default:
		return invalid("unknown precision %d (want FP64 or FP32)", int(o.Precision))
	}
	so := o.SolveOptions()
	if err := so.Validate(); err != nil {
		return err
	}
	return cell(o, so, batch)
}

// Validate rejects nonsensical per-solve options: negative or NaN numbers,
// unknown variants, architecture profiles and transports. It is the
// per-solve half of Options.Validate, so the HTTP layer and the library
// agree on what a bad request is.
func (o SolveOptions) Validate() error {
	switch {
	case o.Tol < 0 || math.IsNaN(o.Tol):
		return invalid("Tol %g is negative or NaN (0 selects the default 1e-8)", o.Tol)
	case o.MaxIter < 0:
		return invalid("MaxIter %d is negative (0 selects the default 10·n)", o.MaxIter)
	case o.Restart < 0:
		return invalid("Restart %d is negative (0 selects the default 30)", o.Restart)
	}
	switch o.CGVariant {
	case CGClassic, CGFused, CGPipelined:
	default:
		return invalid("unknown CG variant %d", int(o.CGVariant))
	}
	switch o.Transport {
	case "", "sim", "tcp":
	default:
		return invalid("unknown transport %q (want sim or tcp)", o.Transport)
	}
	if o.Arch != "" {
		if _, err := archmodel.ByName(o.Arch); err != nil {
			return invalid("%v", err)
		}
	}
	return nil
}

// cell is the one check of how the fields of the two groups combine, for a
// solve that is batched or not:
//   - SPAI is a right inverse only GMRES applies, and GMRES has no use for
//     the factor pair of the FSAI family;
//   - GMRES runs the classic schedule in FP64 on one right-hand side;
//   - a batch runs the CG family on the classic or fused schedule.
func cell(setup Options, so SolveOptions, batch bool) error {
	gmres := setup.Solver == SolverGMRES
	switch {
	case setup.Method == SPAI && !gmres:
		return invalid("Method SPAI requires Solver SolverGMRES (SPAI is a right inverse for GMRES, not a CG factor pair)")
	case gmres && setup.Method != SPAI:
		return invalid("Solver SolverGMRES requires Method SPAI (the FSAI family pairs with CG)")
	case gmres && so.CGVariant != CGClassic:
		return invalid("GMRES has only the classic blocking schedule (leave CGVariant zero)")
	case gmres && setup.Precision == FP32:
		return invalid("FP32 iterative refinement is a CG-family feature; GMRES solves run FP64")
	case gmres && batch:
		return invalid("batched solves support the CG family only (GMRES solves one right-hand side at a time)")
	case batch && so.CGVariant != CGClassic && so.CGVariant != CGFused:
		return fmt.Errorf("%w: variant %v (batched solves support classic and fused)", ErrBatchVariant, so.CGVariant)
	}
	return nil
}

// Canonical checks o for a distributed system of matrix a — every field
// and every combination — and returns
// its set-up group in the one form all spellings of it share: defaults
// resolved (LineBytes, PatternLevel, Partitioner, Ranks), the SPAI knobs
// zero unless Method is SPAI, Workers zero, and the per-solve fields at
// their defaults for a. It is what Prepared.Options reports and what the
// serving layer keys its cache of prepared systems by.
func (o Options) Canonical(a *Matrix) (Options, error) {
	if err := o.check(false); err != nil {
		return Options{}, err
	}
	return o.canonical(a), nil
}

// canonical is Canonical on checked options.
func (o Options) canonical(a *Matrix) Options {
	c := Options{
		Method:        o.Method,
		Solver:        o.Solver,
		Filter:        o.Filter,
		Strategy:      o.Strategy,
		LineBytes:     o.LineBytes,
		Ranks:         AutoRanks(a, o.Ranks),
		PatternLevel:  max(o.PatternLevel, 1),
		Threshold:     o.Threshold,
		PartitionSeed: o.PartitionSeed,
		Partitioner:   o.Partitioner,
		Precision:     o.Precision,
	}
	if c.LineBytes == 0 {
		c.LineBytes = 64
	}
	if c.Partitioner == "" {
		c.Partitioner = "multilevel"
	}
	if o.Method == SPAI {
		c.SPAISteps, c.SPAIAdd, c.SPAIEpsilon = o.SPAISteps, o.SPAIAdd, o.SPAIEpsilon
	}
	d := SolveOptions{}.withDefaults(a.Rows)
	c.Tol, c.MaxIter = d.Tol, d.MaxIter
	return c
}

// withDefaults resolves the per-solve defaults that depend on nothing but
// the system size n.
func (o SolveOptions) withDefaults(n int) SolveOptions {
	if o.Tol == 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter == 0 {
		o.MaxIter = max(10*n, 100)
	}
	return o
}

// buildConfig is what shapes the preconditioner's values and pattern, for
// every build (on one rank or many, FSAI family or SPAI; a method ignores
// the other's knobs): the canonical set-up group and the worker pool.
func buildConfig(setup Options, workers int) core.Config {
	return core.Config{
		Method:       setup.Method,
		Filter:       setup.Filter,
		Strategy:     setup.Strategy,
		LineBytes:    setup.LineBytes,
		PatternLevel: setup.PatternLevel,
		Threshold:    setup.Threshold,
		Workers:      workers,
		SPAISteps:    setup.SPAISteps,
		SPAIAdd:      setup.SPAIAdd,
		SPAIEpsilon:  setup.SPAIEpsilon,
	}
}

// solveParams is what a rank job needs to run the Krylov loop under so on
// the operators of a system set up with setup, of n rows, and the
// architecture profile the solve is priced under, resolved by name. It
// cannot fail: so has passed Validate.
func solveParams(setup Options, so SolveOptions, n int) (mprun.SolveParams, archmodel.Profile) {
	so = so.withDefaults(n)
	prof := archmodel.Skylake
	if so.Arch != "" {
		prof, _ = archmodel.ByName(so.Arch)
	}
	return mprun.SolveParams{
		Solver:    setup.Solver,
		Restart:   so.Restart,
		Tol:       so.Tol,
		MaxIter:   so.MaxIter,
		Variant:   so.CGVariant,
		Trace:     so.Trace,
		Precision: setup.Precision,
	}, prof
}

// checkRHS rejects a block of right-hand sides (one or more columns) for a
// system of n rows that has no column, a column of another length, or a
// NaN/Inf entry: a single non-finite component makes every residual NaN, so
// the solve could only end in breakdown — it is rejected at the boundary
// (and before it can poison a content-addressed cache) instead.
func checkRHS(rhs [][]float64, n int) error {
	if len(rhs) == 0 {
		return fmt.Errorf("fsaicomm: a solve needs at least 1 right-hand side")
	}
	for c, b := range rhs {
		name := "rhs"
		if len(rhs) > 1 {
			name = fmt.Sprintf("rhs column %d", c)
		}
		if len(b) != n {
			return fmt.Errorf("fsaicomm: %s length %d, want %d", name, len(b), n)
		}
		for i, v := range b {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return invalid("%s[%d] = %g is not finite", name, i, v)
			}
		}
	}
	return nil
}
