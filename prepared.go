package fsaicomm

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fsaicomm/internal/archmodel"
	"fsaicomm/internal/core"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/mprun"
	"fsaicomm/internal/simmpi"
)

// SolveOptions are the per-solve knobs of a Prepared system: everything in
// Options that does not change the partition or the preconditioner factors.
// The setup-shaping fields (Method, Filter, Ranks, Partitioner, ...) are
// fixed at Prepare time; trying to change them per solve would invalidate
// the cached factors, so they simply are not here.
type SolveOptions struct {
	// Tol is the relative residual target. Default 1e-8.
	Tol float64
	// MaxIter caps CG iterations. Default 10·n.
	MaxIter int
	// CGVariant selects the distributed CG loop (see Options.CGVariant).
	// Ignored by systems prepared for SPAI+GMRES, which run the classic
	// blocking schedule only.
	CGVariant CGVariant
	// Restart overrides the GMRES restart length for this solve (0 keeps
	// the Prepare-time Options.Restart). Ignored by CG-prepared systems.
	Restart int
	// Arch names the architecture profile for Result.ModeledSolveTime
	// ("skylake" default, "a64fx", "zen2").
	Arch string
	// Trace records per-iteration telemetry into Result.Trace (rank 0).
	Trace bool
	// ResidualReplaceEvery periodically recomputes the true residual in the
	// pipelined loop (see Options.ResidualReplaceEvery).
	ResidualReplaceEvery int
	// Transport selects the rank runtime: "sim" (default) or "tcp" (one OS
	// process per rank; the localized factors and halo schedules are shipped
	// to the workers, so the solve still pays no setup communication). See
	// Options.Transport.
	Transport string
	// Nodes and RanksPerNode declare a per-solve two-level topology (see
	// Options.Nodes). A cached prepared system can be solved under any node
	// grouping: the node-aware relay schedule derives from need counts
	// captured at Prepare time, with zero extra setup communication.
	Nodes        int
	RanksPerNode int
	// NoNodeAggregation keeps the flat per-rank halo schedule under the
	// declared topology (see Options.NoNodeAggregation).
	NoNodeAggregation bool
}

// Validate rejects nonsensical per-solve options, reusing the facade's
// single validator so the HTTP layer and the library agree on what a bad
// request is.
func (o SolveOptions) Validate() error {
	if o.Restart < 0 {
		return fmt.Errorf("%w: Restart %d is negative (0 keeps the Prepare-time value)", ErrInvalidOptions, o.Restart)
	}
	return Options{
		Tol:                  o.Tol,
		MaxIter:              o.MaxIter,
		CGVariant:            o.CGVariant,
		Arch:                 o.Arch,
		ResidualReplaceEvery: o.ResidualReplaceEvery,
		Transport:            o.Transport,
		Nodes:                o.Nodes,
		RanksPerNode:         o.RanksPerNode,
		NoNodeAggregation:    o.NoNodeAggregation,
	}.Validate()
}

// prepRank is one rank's share of a prepared system: the localized matrix
// and factor views (read-only during solves, shared by every solve) and the
// halo-plan schedules (cloned per solve; only their send buffers are
// mutable). CG systems carry the g/gt factor pair, GMRES systems the m
// inverse; the other set is nil.
type prepRank struct {
	lo, hi               int
	aLZ, gLZ, gtLZ       *distmat.Localized
	mLZ                  *distmat.Localized
	aPlan, gPlan, gtPlan *distmat.HaloPlan
	mPlan                *distmat.HaloPlan
}

// Prepared is a fully set-up distributed system: partition, permutation,
// localized matrix, halo-plan schedules and preconditioner factors, built
// once by Prepare and reusable for any number of Solve calls — including
// concurrent ones. Each Solve spins up its own simulated world and derives
// private operators from the shared read-only parts with zero setup
// communication, so repeated solves pay only the Krylov loop. This is the
// unit the serving layer caches: one Prepared per (matrix fingerprint,
// setup options) pair.
type Prepared struct {
	n         int
	ranks     int
	setupOpt  Options // canonicalized setup options (informational)
	layout    *distmat.Layout
	oldToNew  []int
	parts     []prepRank
	pct       float64
	imbalance float64
	setup     time.Duration
	phases    SetupPhases
	// pools hold per-rank krylov workspaces so steady-state solves allocate
	// only the solution vector. Indexed by rank: concurrent solves share the
	// pools, but a workspace is only ever used by one rank goroutine at a
	// time between Get and Put.
	pools []sync.Pool
}

// Prepare partitions A, builds the selected preconditioner variant and the
// halo schedules, and returns a Prepared system ready for repeated solves.
// The setup-phase communication (plan index exchange, remote row gather,
// distributed transpose) happens exactly once, here.
func Prepare(a *Matrix, opt Options) (*Prepared, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := checkInputMatrix(a, opt.Solver); err != nil {
		return nil, err
	}
	opt = opt.withDefaults(a.Rows)
	ranks := AutoRanks(a, opt.Ranks)
	if ranks < 1 {
		return nil, fmt.Errorf("fsaicomm: ranks %d < 1", ranks)
	}
	opt.Ranks = ranks

	var phases SetupPhases
	t0 := time.Now()
	part, err := partitionRows(a, opt, ranks)
	if err != nil {
		return nil, err
	}
	phases.Partition = time.Since(t0)
	t0 = time.Now()
	pa, layout, oldToNew := distmat.ApplyPartition(a, part, ranks)
	phases.Permute = time.Since(t0)

	cfg := core.Config{
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
		// The CG variant is chosen per solve; overlap views are built
		// lazily (and locally) on the per-solve operators, so the setup
		// builds the blocking schedule only. Precision is likewise applied
		// per solve (the rank job narrows its private operators; the float32
		// value view is cached on the shared Localized), so the build stays
		// the plain FP64 one.
		CGVariant: CGClassic,
	}
	p := &Prepared{
		n:        a.Rows,
		ranks:    ranks,
		setupOpt: opt,
		layout:   layout,
		oldToNew: oldToNew,
		parts:    make([]prepRank, ranks),
		pools:    make([]sync.Pool, ranks),
	}
	rankPhases := make([]core.SetupPhases, ranks)
	t0 = time.Now()
	if _, err := simmpi.Run(ranks, time.Hour, func(c *simmpi.Comm) error {
		lo, hi := layout.Range(c.Rank())
		aRows := distmat.ExtractLocalRows(pa, lo, hi)
		bd, err := core.BuildPrecond(c, layout, aRows, cfg)
		if err != nil {
			return err
		}
		tOp := time.Now()
		aOp := distmat.NewOp(c, layout, lo, hi, aRows)
		bd.Phases.HaloPlans += time.Since(tOp)
		rankPhases[c.Rank()] = bd.Phases
		pr := prepRank{lo: lo, hi: hi, aLZ: aOp.LZ, aPlan: aOp.Plan}
		if opt.Method == SPAI {
			pr.mLZ, pr.mPlan = bd.MOp.LZ, bd.MOp.Plan
		} else {
			pr.gLZ, pr.gtLZ = bd.GOp.LZ, bd.GTOp.LZ
			pr.gPlan, pr.gtPlan = bd.GOp.Plan, bd.GTOp.Plan
		}
		p.parts[c.Rank()] = pr
		if c.Rank() == 0 {
			p.pct = bd.PctNNZIncrease
			p.imbalance = bd.ImbalanceIndex
		}
		return nil
	}); err != nil {
		return nil, err
	}
	p.setup = time.Since(t0)
	phases.SetupPhases = core.MeanPhases(rankPhases)
	p.phases = phases
	for i := range p.pools {
		p.pools[i].New = func() any { return &krylov.Workspace{} }
	}
	return p, nil
}

// Ranks returns the simulated-process count the system was prepared for.
func (p *Prepared) Ranks() int { return p.ranks }

// Rows returns the system dimension.
func (p *Prepared) Rows() int { return p.n }

// SetupTime returns the wall-clock cost of Prepare — the time every solve
// served from this Prepared avoids paying again.
func (p *Prepared) SetupTime() time.Duration { return p.setup }

// SetupPhases says where the wall-clock time of one Prepare went.
type SetupPhases struct {
	// Partition is the graph partitioner, Permute the symmetric permutation
	// that makes each rank's rows contiguous.
	Partition, Permute time.Duration
	// The per-rank phases — pattern extension, first build, filter, rebuild
	// with its reused/solved row counts, transpose, halo plans (A's
	// included) — merged over ranks: mean times, so that the phases add up
	// to the time the ranks ran, and summed row counts.
	core.SetupPhases
}

// SetupPhases returns the breakdown of the Prepare that built p.
func (p *Prepared) SetupPhases() SetupPhases { return p.phases }

// PctNNZIncrease returns the factor pattern growth versus the FSAI baseline.
func (p *Prepared) PctNNZIncrease() float64 { return p.pct }

// Options returns the canonicalized setup options (defaults applied,
// automatic rank count resolved).
func (p *Prepared) Options() Options { return p.setupOpt }

// SizeBytes estimates the memory retained by the prepared system — the
// localized matrix and factor copies plus the halo schedules — for cache
// byte-budget accounting. It ignores small fixed overheads.
func (p *Prepared) SizeBytes() int64 {
	var total int64
	lzBytes := func(lz *distmat.Localized) int64 {
		if lz == nil {
			return 0
		}
		return 8 * int64(len(lz.M.RowPtr)+len(lz.M.ColIdx)+len(lz.M.Val)+len(lz.Halo))
	}
	planBytes := func(pl *distmat.HaloPlan) int64 {
		if pl == nil {
			return 0
		}
		return 8 * int64(pl.SendCount()+pl.RecvCount()+len(pl.SendPeerIDs())+len(pl.RecvPeerIDs()))
	}
	for i := range p.parts {
		r := &p.parts[i]
		total += lzBytes(r.aLZ) + lzBytes(r.gLZ) + lzBytes(r.gtLZ) + lzBytes(r.mLZ)
		total += planBytes(r.aPlan) + planBytes(r.gPlan) + planBytes(r.gtPlan) + planBytes(r.mPlan)
	}
	total += 8 * int64(len(p.oldToNew))
	return total
}

// Solve runs one distributed CG solve A·x = b on the prepared system. It
// performs no setup communication: every rank derives private operators
// from the shared localized views and cloned plan schedules, so the
// returned Result reports SetupTime 0. Safe to call concurrently from
// multiple goroutines; concurrent solves share the read-only parts and
// nothing else. Cancellation follows SolveDistributedContext: all ranks
// stop at the same iteration boundary and the partial Result comes back
// with an ErrCanceled-wrapped error.
func (p *Prepared) Solve(ctx context.Context, b []float64, so SolveOptions) (*Result, error) {
	if err := so.Validate(); err != nil {
		return nil, err
	}
	if len(b) != p.n {
		return nil, fmt.Errorf("fsaicomm: rhs length %d, want %d", len(b), p.n)
	}
	if so.Tol == 0 {
		so.Tol = 1e-8
	}
	if so.MaxIter == 0 {
		so.MaxIter = 10 * p.n
		if so.MaxIter < 100 {
			so.MaxIter = 100
		}
	}
	prof := archmodel.Skylake
	if so.Arch != "" {
		var err error
		if prof, err = archmodel.ByName(so.Arch); err != nil {
			return nil, fmt.Errorf("fsaicomm: %w", err)
		}
	}
	topo, err := resolveTopology(p.ranks, so.Nodes, so.RanksPerNode)
	if err != nil {
		return nil, err
	}

	gmres := p.setupOpt.Solver == SolverGMRES
	if gmres && so.CGVariant != CGClassic {
		return nil, fmt.Errorf("%w: this system was prepared for SPAI+GMRES, which has only the classic blocking schedule", ErrInvalidOptions)
	}
	restart := p.setupOpt.Restart
	if so.Restart > 0 {
		restart = so.Restart
	}
	pb := distmat.PermuteVec(b, p.oldToNew)
	specs := make([]*mprun.PreparedRankSpec, p.ranks)
	for r := range specs {
		pr := &p.parts[r]
		spec := &mprun.PreparedRankSpec{
			N: p.n, Ranks: p.ranks, Offsets: p.layout.Offsets,
			Lo: pr.lo, Hi: pr.hi,
			ALZ: pr.aLZ,
			// The schedules are read-only [][]int views; the rank job wraps
			// them in a fresh HaloPlan with private send buffers, which is
			// what Clone used to provide. The need counts captured at Prepare
			// time let a declared topology rebuild the node-aware relay
			// schedule locally.
			ASend: pr.aPlan.SendPeers, ARecv: pr.aPlan.RecvPeers,
			ACounts:              pr.aPlan.NeedCounts(),
			BLocal:               pb[pr.lo:pr.hi],
			Pct:                  p.pct,
			Imbalance:            p.imbalance,
			Solver:               p.setupOpt.Solver,
			Restart:              restart,
			Tol:                  so.Tol,
			MaxIter:              so.MaxIter,
			Variant:              so.CGVariant,
			Trace:                so.Trace,
			ResidualReplaceEvery: so.ResidualReplaceEvery,
			Arch:                 so.Arch,
			Precision:            p.setupOpt.Precision,
			Nodes:                topo.Nodes,
			RanksPerNode:         topo.RanksPerNode,
			NoNodeAggregation:    so.NoNodeAggregation,
		}
		if gmres {
			spec.MLZ = pr.mLZ
			spec.MSend, spec.MRecv = pr.mPlan.SendPeers, pr.mPlan.RecvPeers
			spec.MCounts = pr.mPlan.NeedCounts()
		} else {
			spec.GLZ, spec.GTLZ = pr.gLZ, pr.gtLZ
			spec.GSend, spec.GRecv = pr.gPlan.SendPeers, pr.gPlan.RecvPeers
			spec.GTSend, spec.GTRecv = pr.gtPlan.SendPeers, pr.gtPlan.RecvPeers
			spec.GCounts, spec.GTCounts = pr.gPlan.NeedCounts(), pr.gtPlan.NeedCounts()
		}
		specs[r] = spec
	}

	var outs []*mprun.RankOutcome
	if so.Transport == "tcp" {
		// The worker processes receive the localized factors over the wire;
		// their workspaces are fresh per process, so the pools stay local.
		outs, err = mprun.Launch(ctx, p.ranks, time.Hour, func(rank int) *mprun.JobSpec {
			return &mprun.JobSpec{Prepared: specs[rank]}
		})
	} else {
		outs = make([]*mprun.RankOutcome, p.ranks)
		_, err = simmpi.RunTopo(p.ranks, time.Hour, topo, func(c *simmpi.Comm) error {
			ws := p.pools[c.Rank()].Get().(*krylov.Workspace)
			defer p.pools[c.Rank()].Put(ws)
			out, err := mprun.RunPreparedRank(ctx, c, specs[c.Rank()], ws)
			if err != nil {
				return err
			}
			outs[c.Rank()] = out
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	return assembleDistResult(p.n, p.ranks, prof, so.CGVariant, p.oldToNew, outs, p.pct, p.imbalance)
}
