// Package experiments drives the reproduction of every table and figure in
// the paper's evaluation (§5): it runs (matrix × method × filter × strategy
// × architecture) grids over the synthetic catalogs, collects real CG
// iteration counts, metered communication, simulated cache misses and
// modeled solve times, and renders the paper's tables and figure series as
// text. Every configuration runs on the library's one pipeline: the set-up
// is core.BuildPrecond on goroutine ranks, and the solve is one
// mprun.RunJob per rank on the operators that set-up holds.
package experiments

import (
	"fmt"
	"time"

	"fsaicomm/internal/archmodel"
	"fsaicomm/internal/core"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/mprun"
	"fsaicomm/internal/partition"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/testsets"
)

// runTimeout bounds each simulated-MPI run; a hit means a deadlock bug, not
// a slow solve, so it is generous.
const runTimeout = 10 * time.Minute

// Result is the outcome of solving one matrix with one configuration.
type Result struct {
	Spec     testsets.Spec
	Method   core.Method
	Filter   float64
	Strategy core.FilterStrategy
	Ranks    int

	Rows, NNZ int

	Iterations int
	Converged  bool
	SolveTime  float64 // modeled seconds (arch cost model)
	// Phases is the per-window breakdown of SolveTime (worst rank, whole
	// solve): for each communication window, raw α–β time, hidden credit and
	// exposed remainder. Phases.TotalSec == SolveTime exactly.
	Phases archmodel.OverlapReport

	PctNNZ         float64 // % pattern entries added vs FSAI
	ImbalanceIndex float64 // avg/max per-rank entries of G

	// Per-process averages for the preconditioning product GᵀGx.
	MissesPerNNZ  float64 // simulated L1 misses on x per G/Gᵀ entry
	GFlopsPrecond float64 // modeled GFLOP/s per process
	// Communication per iteration (bytes sent, all ranks).
	CommBytesPerIter float64
	// Metered solve-phase totals over all ranks, straight from the simmpi
	// meter: point-to-point bytes and collective calls.
	P2PBytes        int64
	CollectiveCalls int64
}

// Runner executes configurations against a catalog. It memoizes matrix
// generation and partitioning (per spec and rank count) and every Result,
// so drivers that share configurations pay for each one once.
type Runner struct {
	Arch archmodel.Profile
	// RanksOf chooses the simulated process count for a matrix; defaults to
	// testsets.DefaultRanks.
	RanksOf func(nnz int) int
	// Tol and MaxIter configure the CG solves (paper: residual reduction by
	// 1e8).
	Tol     float64
	MaxIter int
	// Workers bounds the shared-memory pool for per-rank row solves
	// (<= 0 → 1 worker per rank; ranks already run concurrently).
	Workers int
	// Variant selects the distributed CG loop for every solve: classic,
	// classic-overlap, fused or pipelined (see krylov.CGVariant).
	Variant krylov.CGVariant

	mats    map[matKey]*matEntry
	sizes   map[string][2]int // spec name -> rows, nnz
	results map[resKey]Result
}

type resKey struct {
	name     string
	method   core.Method
	filter   float64
	strategy core.FilterStrategy
	line     int
	cores    int
	variant  krylov.CGVariant
}

// NewRunner returns a Runner for the given architecture profile.
func NewRunner(arch archmodel.Profile) *Runner {
	return &Runner{
		Arch:    arch,
		RanksOf: testsets.DefaultRanks,
		Tol:     1e-8,
		MaxIter: 30000,
		mats:    map[matKey]*matEntry{},
		sizes:   map[string][2]int{},
		results: map[resKey]Result{},
	}
}

type matKey struct {
	id    int
	name  string
	ranks int
}

type matEntry struct {
	a      *sparse.CSR // permuted
	layout *distmat.Layout
	b      []float64
}

// size returns (rows, nnz) for a spec, generating the matrix at most once.
func (r *Runner) size(spec testsets.Spec) (int, int) {
	if sz, ok := r.sizes[spec.Name]; ok {
		return sz[0], sz[1]
	}
	a := spec.Generate()
	r.sizes[spec.Name] = [2]int{a.Rows, a.NNZ()}
	return a.Rows, a.NNZ()
}

func (r *Runner) matrix(spec testsets.Spec, ranks int) (*matEntry, error) {
	key := matKey{spec.ID, spec.Name, ranks}
	if e, ok := r.mats[key]; ok {
		return e, nil
	}
	a := spec.Generate()
	g := partition.GraphFromMatrix(a)
	part, err := partition.Multilevel(g, ranks, partition.Options{Seed: int64(spec.ID)})
	if err != nil {
		return nil, fmt.Errorf("experiments: partition %s: %w", spec.Name, err)
	}
	pa, layout, _ := distmat.ApplyPartition(a, part, ranks)
	e := &matEntry{
		a:      pa,
		layout: layout,
		b:      matgen.RandomRHS(pa.Rows, int64(1000+spec.ID), pa.MaxNorm()),
	}
	r.mats[key] = e
	return e, nil
}

// Run solves one configuration and returns its Result. Results are
// memoized, so drivers sharing configurations (e.g. the per-matrix figures
// reusing the filter-grid runs) pay for each solve once.
func (r *Runner) Run(spec testsets.Spec, method core.Method, filter float64, strategy core.FilterStrategy) (Result, error) {
	rk := resKey{spec.Name, method, filter, strategy, r.Arch.LineBytes, r.Arch.CoresPerProcess, r.Variant}
	if method == core.FSAI {
		rk.filter, rk.strategy, rk.line = 0, core.StaticFilter, 0
	}
	if res, ok := r.results[rk]; ok {
		return res, nil
	}
	res := Result{Spec: spec, Method: method, Filter: filter, Strategy: strategy}

	// Rank count depends only on the matrix (paper §5.2 rule).
	rows, nnz := r.size(spec)
	ranks := r.RanksOf(nnz)
	res.Ranks = ranks
	res.Rows, res.NNZ = rows, nnz

	me, err := r.matrix(spec, ranks)
	if err != nil {
		return res, err
	}

	// Set-up (Algorithm 2): build on goroutine ranks and hold the operators.
	// precond is each rank's cost of one GᵀGx product; the solve's trace adds
	// its cache misses.
	cfg := core.Config{Method: method, Filter: filter, Strategy: strategy, LineBytes: r.Arch.LineBytes, Workers: r.Workers}
	held := make([]mprun.Operators, ranks)
	precond := make([]archmodel.RankCost, ranks)
	nnzPrecond := make([]int64, ranks)
	if _, err := simmpi.Run(ranks, runTimeout, func(c *simmpi.Comm) error {
		lo, hi := me.layout.Range(c.Rank())
		bd, err := core.BuildPrecond(c, me.layout, distmat.ExtractLocalRows(me.a, lo, hi), cfg)
		if err != nil {
			return err
		}
		held[c.Rank()] = mprun.Operators{A: mprun.Hold(bd.AOp), G: mprun.Hold(bd.GOp), GT: mprun.Hold(bd.GTOp)}
		n := int64(bd.GOp.LZ.M.NNZ() + bd.GTOp.LZ.M.NNZ())
		nnzPrecond[c.Rank()] = n
		precond[c.Rank()] = archmodel.RankCost{
			Flops:       2 * n,
			StreamBytes: 12*n + 24*int64(hi-lo),
			CommBytes:   int64(8 * (bd.GOp.Plan.SendCount() + bd.GTOp.Plan.SendCount())),
			CommMsgs:    int64(len(bd.GOp.Plan.SendPeerIDs()) + len(bd.GTOp.Plan.SendPeerIDs())),
		}
		if c.Rank() == 0 {
			res.PctNNZ, res.ImbalanceIndex = bd.PctNNZIncrease, bd.ImbalanceIndex
		}
		return nil
	}); err != nil {
		return res, fmt.Errorf("experiments: set-up %s/%s: %w", spec.Name, method, err)
	}

	// Solve: one rank job per rank on a world of its own, so the meters hold
	// the solve's traffic and nothing else. A nil context keeps the loop free
	// of cancellation collectives.
	job := mprun.JobSpec{Layout: me.layout, Solve: mprun.SolveParams{
		Tol: r.Tol, MaxIter: r.MaxIter, Variant: r.Variant, Profile: r.Arch}}
	outs := make([]*mprun.RankOutcome, ranks)
	if _, err := simmpi.Run(ranks, runTimeout, func(c *simmpi.Comm) error {
		j := job.ForRank(c.Rank(), me.b)
		j.Adopt = &held[c.Rank()]
		out, err := mprun.RunJob(nil, c, j, nil)
		outs[c.Rank()] = out
		return err
	}); err != nil {
		return res, fmt.Errorf("experiments: solve %s/%s: %w", spec.Name, method, err)
	}

	res.Iterations, res.Converged = outs[0].Iterations, outs[0].Converged
	costs := make([]mprun.IterCostInputs, ranks)
	var missSum, gflopSum float64
	for rank, out := range outs {
		costs[rank] = out.Cost
		precond[rank].CacheMisses = out.Cost.PrecondMisses
		if nnzPrecond[rank] > 0 {
			missSum += float64(precond[rank].CacheMisses) / float64(nnzPrecond[rank])
		}
		gflopSum += r.Arch.GFlopsPerProcess(precond[rank])
		res.P2PBytes += out.SolveComm.P2PBytes
		res.CollectiveCalls += out.SolveComm.CollectiveCalls
	}
	// Every variant is modeled with the windowed overlap-credit model (the
	// classic loop's windows carry no hiding compute, so its time equals the
	// fully-exposed α–β model); Phases is the matching per-window breakdown.
	res.SolveTime = mprun.ModeledSolveTime(r.Arch, r.Variant, res.Iterations, costs)
	res.Phases = mprun.ModeledPhases(r.Arch, r.Variant, res.Iterations, costs)
	res.MissesPerNNZ = missSum / float64(ranks)
	res.GFlopsPrecond = gflopSum / float64(ranks)
	if res.Iterations > 0 {
		res.CommBytesPerIter = float64(res.P2PBytes) / float64(res.Iterations)
	}
	r.results[rk] = res
	return res, nil
}
