// Package experiments drives the reproduction of every table and figure in
// the paper's evaluation (§5): it runs (matrix × method × filter × strategy
// × architecture) grids over the synthetic catalogs, collects real CG
// iteration counts, metered communication, simulated cache misses and
// modeled solve times, and renders the paper's tables and figure series as
// text.
package experiments

import (
	"fmt"
	"time"

	"fsaicomm/internal/archmodel"
	"fsaicomm/internal/core"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/fsai"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/matgen"
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
	// meter: the numbers the α–β model is fed.
	P2PBytes        int64
	P2PMessages     int64
	CollectiveCalls int64
	CollectiveBytes int64
}

// Runner executes configurations against a catalog with memoization of the
// expensive stages: matrix generation + partitioning (per spec and rank
// count) and the extended-pattern FSAI precompute (per spec, method, line
// size and rank count), which the filter sweeps of Tables 3/5/6/7 reuse
// exactly as the paper's two-pass algorithm does.
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
	exts    map[extKey]*extEntry
	sizes   map[string][2]int // spec name -> rows, nnz
	results map[resKey]Result
	// works holds per-rank solver workspaces keyed by rank count, so the
	// many solves of a sweep reuse iteration vectors instead of
	// reallocating. Populated from the driver goroutine before each
	// simulated run; rank closures only index their own slot.
	works map[int][]*krylov.Workspace
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
		exts:    map[extKey]*extEntry{},
		sizes:   map[string][2]int{},
		results: map[resKey]Result{},
		works:   map[int][]*krylov.Workspace{},
	}
}

// workspaces returns the per-rank workspace pool for a rank count, creating
// it on first use. Must be called from the driver goroutine (not inside a
// rank closure); each rank then reuses only its own entry.
func (r *Runner) workspaces(ranks int) []*krylov.Workspace {
	ws, ok := r.works[ranks]
	if !ok {
		ws = make([]*krylov.Workspace, ranks)
		for i := range ws {
			ws[i] = &krylov.Workspace{}
		}
		r.works[ranks] = ws
	}
	return ws
}

// opOptions returns the distmat operator options matching the configured
// solver variant (the overlap view for the communication-hiding loops).
func (r *Runner) opOptions() []distmat.OpOption {
	if r.Variant != krylov.CGClassic {
		return []distmat.OpOption{distmat.WithOverlap()}
	}
	return nil
}

// cgOptions builds one rank's solver options: the Runner's tolerance and
// variant plus that rank's reusable workspace.
func (r *Runner) cgOptions(ws []*krylov.Workspace, rank int, record bool) krylov.Options {
	return krylov.Options{
		Tol: r.Tol, MaxIter: r.MaxIter, RecordResiduals: record,
		Variant: r.Variant, Work: ws[rank],
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

type extKey struct {
	matKey
	method    core.Method
	lineBytes int
}

type extEntry struct {
	gExt    []*sparse.CSR // per-rank precomputed factor on the extended pattern
	baseNNZ int64
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

// extended returns the per-rank FSAI factor precomputed on the (possibly
// extended) pattern, before filtering: the "Step 4" precompute of
// Algorithm 2. For FSAI the pattern is the unextended lower triangle.
func (r *Runner) extended(spec testsets.Spec, me *matEntry, method core.Method, ranks int) (*extEntry, error) {
	key := extKey{matKey{spec.ID, spec.Name, ranks}, method, r.Arch.LineBytes}
	if method == core.FSAI {
		key.lineBytes = 0 // line size does not matter for the baseline
	}
	if e, ok := r.exts[key]; ok {
		return e, nil
	}
	entry := &extEntry{gExt: make([]*sparse.CSR, ranks)}
	_, err := simmpi.Run(ranks, runTimeout, func(c *simmpi.Comm) error {
		lo, hi := me.layout.Range(c.Rank())
		aRows := distmat.ExtractLocalRows(me.a, lo, hi)
		s := core.LowerPatternDist(aRows, lo)
		base := c.AllreduceSumInt64(int64(s.Pattern.NNZ()))[0]
		pat := s
		if method != core.FSAI {
			lz := distmat.Localize(lo, hi, core.PatternCSR(s))
			ext, _, err := core.ExtendPattern(me.layout, s, lz, core.ExtendOptions{
				LineBytes: r.Arch.LineBytes,
				CommAware: method == core.FSAIEComm,
			})
			if err != nil {
				return err
			}
			pat = ext
		}
		g, err := fsai.BuildDistWorkers(c, me.layout, aRows, pat, r.Workers)
		if err != nil {
			return err
		}
		entry.gExt[c.Rank()] = g
		if c.Rank() == 0 {
			entry.baseNNZ = base
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: extended build %s/%s: %w", spec.Name, method, err)
	}
	r.exts[key] = entry
	return entry, nil
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
	ee, err := r.extended(spec, me, method, ranks)
	if err != nil {
		return res, err
	}

	costs := make([]IterCostInputs, ranks)
	precondRank := make([]archmodel.RankCost, ranks)
	nnzPrecond := make([]int64, ranks)
	var finalNNZ int64
	works := r.workspaces(ranks)
	world, err := simmpi.Run(ranks, runTimeout, func(c *simmpi.Comm) error {
		lo, hi := me.layout.Range(c.Rank())
		nl := hi - lo
		aRows := distmat.ExtractLocalRows(me.a, lo, hi)
		gExt := ee.gExt[c.Rank()]

		// Filtering (Algorithm 2 step 4 / Algorithm 4) and final build.
		var g *sparse.CSR
		if method == core.FSAI {
			g = gExt
		} else {
			base := core.LowerPatternDist(aRows, lo).Pattern
			var err error
			g, _, err = core.FilterRebuild(c, me.layout, aRows, gExt, base, filter, strategy, r.Workers)
			if err != nil {
				return err
			}
		}
		gt := distmat.TransposeDist(c, me.layout, lo, hi, g)

		aOp := distmat.NewOp(c, me.layout, lo, hi, aRows, r.opOptions()...)
		gOp := distmat.NewOp(c, me.layout, lo, hi, g, r.opOptions()...)
		gtOp := distmat.NewOp(c, me.layout, lo, hi, gt, r.opOptions()...)

		imb := distmat.NNZImbalanceIndex(c, int64(g.NNZ()))
		gNNZ := c.AllreduceSumInt64(int64(g.NNZ()))[0]

		// Cost model inputs (independent of the solve).
		ci := AssembleIterCost(TraceMisses(r.Arch, aOp, gOp, gtOp), aOp, gOp, gtOp, nl, ranks, r.Variant)
		costs[c.Rank()] = ci
		precondRank[c.Rank()] = archmodel.RankCost{
			Flops:       2 * int64(gOp.LZ.M.NNZ()+gtOp.LZ.M.NNZ()),
			StreamBytes: 12*int64(gOp.LZ.M.NNZ()+gtOp.LZ.M.NNZ()) + 24*int64(nl),
			CacheMisses: ci.PrecondMisses,
			CommBytes:   int64(8 * (gOp.Plan.SendCount() + gtOp.Plan.SendCount())),
			CommMsgs:    int64(len(gOp.Plan.SendPeerIDs()) + len(gtOp.Plan.SendPeerIDs())),
		}
		nnzPrecond[c.Rank()] = int64(gOp.LZ.M.NNZ() + gtOp.LZ.M.NNZ())

		// Meter only the solve.
		c.Barrier()
		if c.Rank() == 0 {
			c.Meter().Reset()
		}
		c.Barrier()
		x := make([]float64, nl)
		st, err := krylov.DistCG(c, aOp, me.b[lo:hi], x,
			krylov.NewDistSplit(gOp, gtOp),
			r.cgOptions(works, c.Rank(), false), nil)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			res.Iterations = st.Iterations
			res.Converged = st.Converged
			res.ImbalanceIndex = imb
			finalNNZ = gNNZ
		}
		return nil
	})
	if err != nil {
		return res, fmt.Errorf("experiments: solve %s/%s: %w", spec.Name, method, err)
	}

	// Every variant is modeled with the windowed overlap-credit model (the
	// classic loop's windows carry no hiding compute, so its time equals the
	// fully-exposed α–β model); Phases is the matching per-window breakdown.
	res.SolveTime = ModeledSolveTime(r.Arch, r.Variant, res.Iterations, costs)
	res.Phases = ModeledPhases(r.Arch, r.Variant, res.Iterations, costs)
	if ee.baseNNZ > 0 {
		res.PctNNZ = 100 * float64(finalNNZ-ee.baseNNZ) / float64(ee.baseNNZ)
	}
	var missSum, gflopSum float64
	for rk := 0; rk < ranks; rk++ {
		if nnzPrecond[rk] > 0 {
			missSum += float64(precondRank[rk].CacheMisses) / float64(nnzPrecond[rk])
		}
		gflopSum += r.Arch.GFlopsPerProcess(precondRank[rk])
	}
	res.MissesPerNNZ = missSum / float64(ranks)
	res.GFlopsPrecond = gflopSum / float64(ranks)
	res.P2PBytes = world.Meter().TotalP2PBytes()
	res.P2PMessages = world.Meter().TotalP2PMessages()
	res.CollectiveCalls = world.Meter().TotalCollectiveCalls()
	res.CollectiveBytes = world.Meter().TotalCollectiveBytes()
	if res.Iterations > 0 {
		res.CommBytesPerIter = float64(res.P2PBytes) / float64(res.Iterations)
	}
	r.results[rk] = res
	return res, nil
}
