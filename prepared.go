package fsaicomm

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fsaicomm/internal/core"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/experiments"
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
	// process per rank). The first "tcp" solve of a Prepared starts the
	// processes and ships them the localized factors and halo schedules; they
	// stay, so later solves send a right-hand side and get a solution back,
	// until Prepared.Close. See Options.Transport.
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
	return o.over(Options{}).Validate()
}

// over returns setup with the per-solve knobs replaced by o's — the options
// of one solve on a system set up with setup. A zero Tol or MaxIter means
// the default, not the Prepare-time value; only Restart inherits.
func (o SolveOptions) over(setup Options) Options {
	setup.Tol = o.Tol
	setup.MaxIter = o.MaxIter
	setup.CGVariant = o.CGVariant
	if o.Restart > 0 {
		setup.Restart = o.Restart
	}
	setup.Arch = o.Arch
	setup.Trace = o.Trace
	setup.ResidualReplaceEvery = o.ResidualReplaceEvery
	setup.Transport = o.Transport
	setup.Nodes = o.Nodes
	setup.RanksPerNode = o.RanksPerNode
	setup.NoNodeAggregation = o.NoNodeAggregation
	return setup
}

// Prepared is a fully set-up distributed system: partition, permutation,
// localized matrix, halo-plan schedules and preconditioner factors, built
// once by Prepare and reusable for any number of Solve calls — including
// concurrent ones. Each Solve spins up its own simulated world and derives
// private operators from the shared read-only parts with zero setup
// communication, so repeated solves pay only the Krylov loop. This is the
// unit the serving layer caches: one Prepared per (matrix fingerprint,
// setup options) pair. A system solved over the "tcp" transport keeps its
// rank worker processes, operators shipped, until Close.
type Prepared struct {
	n         int
	ranks     int
	setupOpt  Options // canonicalized setup options (informational)
	layout    *distmat.Layout
	oldToNew  []int
	pct       float64
	imbalance float64
	setup     time.Duration
	phases    SetupPhases
	// parts holds, per rank, the localized matrix and factor views
	// (read-only, shared by every solve) and the halo schedules (each solve
	// wraps them in plans with private buffers).
	parts []mprun.Operators
	// traced holds, per architecture profile a scalar solve has run under,
	// parts with each rank's cache-simulator misses filled in from that
	// solve's cost inputs. Later solves under the profile adopt these, so
	// the simulator walks a system's operators once per profile, not once
	// per solve. The misses depend on the operators and the profile alone,
	// so one entry serves every variant, precision, topology and transport.
	tracedMu sync.Mutex
	traced   map[string][]mprun.Operators
	// mesh is the resident worker set of "tcp" solves: spawned by the first
	// one, holding parts from then on, closed by Close. meshMu is held by the
	// solve running on it; a solve that finds it taken runs on a transient
	// mesh instead of waiting. meshBytes is what the mesh adds to SizeBytes.
	meshMu    sync.Mutex
	mesh      *mprun.Mesh
	meshBytes atomic.Int64
	closed    atomic.Bool
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

	// The build is the plain FP64 one in the blocking schedule: variant and
	// precision are chosen per solve, and the rank job dresses its private
	// operators for them without communication.
	cfg := buildConfig(opt)
	p := &Prepared{
		n:        a.Rows,
		ranks:    ranks,
		setupOpt: opt,
		layout:   layout,
		oldToNew: oldToNew,
		parts:    make([]mprun.Operators, ranks),
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
		held := mprun.Operators{A: mprun.Hold(aOp)}
		if opt.Method == SPAI {
			held.M = mprun.Hold(bd.MOp)
		} else {
			held.G, held.GT = mprun.Hold(bd.GOp), mprun.Hold(bd.GTOp)
		}
		p.parts[c.Rank()] = held
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
	// The net under a caller that drops a system without Close, as os.File
	// has one: worker processes must not outlive every reference to it.
	runtime.SetFinalizer(p, (*Prepared).Close)
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
// byte-budget accounting. It ignores small fixed overheads. While "tcp"
// solves keep worker processes resident the figure grows by the workers'
// copy of the operators plus their measured idle resident set, so a cache
// that re-reads it after a solve bounds the processes with its byte budget.
func (p *Prepared) SizeBytes() int64 {
	return p.operatorBytes() + p.meshBytes.Load()
}

func (p *Prepared) operatorBytes() int64 {
	var total int64
	for i := range p.parts {
		r := &p.parts[i]
		for _, h := range []*mprun.HeldOp{r.A, r.G, r.GT, r.M} {
			if h == nil {
				continue
			}
			words := len(h.LZ.M.RowPtr) + len(h.LZ.M.ColIdx) + len(h.LZ.M.Val) + len(h.LZ.Halo)
			// A schedule costs its index lists plus one peer id per non-empty list.
			for _, lists := range [][][]int{h.Send, h.Recv} {
				for _, l := range lists {
					if len(l) > 0 {
						words += len(l) + 1
					}
				}
			}
			total += 8 * int64(words)
		}
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
	if p.setupOpt.Solver == SolverGMRES && so.CGVariant != CGClassic {
		return nil, fmt.Errorf("%w: this system was prepared for SPAI+GMRES, which has only the classic blocking schedule", ErrInvalidOptions)
	}
	f, err := p.run(ctx, [][]float64{b}, 0, so, p.pools)
	if err != nil {
		return nil, err
	}
	return f.result()
}

// run is the cached-set-up path behind Solve (k = 0) and SolveBatch
// (k = len(rhs)): one rank job per rank that adopts the operators Prepare
// holds and solves under so. The worker processes of a tcp solve receive
// the held operators over the wire, once per mesh, and run every job on a
// fresh workspace, so pools only ever serve sim ranks.
func (p *Prepared) run(ctx context.Context, rhs [][]float64, k int, so SolveOptions, pools []sync.Pool) (*rankFold, error) {
	sp, err := solveParams(so.over(p.setupOpt).withDefaults(p.n), p.ranks)
	if err != nil {
		return nil, err
	}
	prof, err := mprun.ProfileFor(sp.Arch)
	if err != nil {
		return nil, fmt.Errorf("fsaicomm: %w", err)
	}
	p.tracedMu.Lock()
	held, known := p.traced[prof.Name]
	p.tracedMu.Unlock()
	if !known {
		held = p.parts
	}
	job := mprun.JobSpec{Layout: p.layout, K: k, Solve: sp}
	f, err := runRanks(ctx, so.Transport, p.runResident, job, held, pools, rhs, p.oldToNew)
	if err != nil {
		return nil, err
	}
	f.pct, f.imb = p.pct, p.imbalance
	if !known && k == 0 { // batched jobs assemble no cost inputs
		p.rememberMisses(prof.Name, f.costs)
	}
	return f, nil
}

// runResident is the rankRunner of a prepared system: the jobs run on the
// system's own mesh, started here if there is none, whose workers keep the
// operators after the first job. The mesh survives the job only if every
// rank reported an outcome and nobody canceled; otherwise it is closed at
// once and the next solve starts another — a lost worker costs the solve it
// was lost in, never the entry. A solve that finds the mesh busy, or the
// system closed, does not wait: it runs on a transient mesh.
func (p *Prepared) runResident(ctx context.Context, jobs []*mprun.JobSpec) ([]*mprun.RankOutcome, error) {
	if p.closed.Load() || !p.meshMu.TryLock() {
		return runTransient(ctx, jobs)
	}
	defer p.reap()
	defer p.meshMu.Unlock()
	if p.mesh == nil {
		mesh, err := mprun.Start(p.ranks)
		if err != nil {
			return nil, err
		}
		p.mesh = mesh
		p.meshBytes.Store(p.operatorBytes() + mesh.IdleRSS())
	}
	outs, err := p.mesh.Run(ctx, jobs)
	if !p.mesh.Reusable() {
		p.dropMesh()
	}
	return outs, err
}

// dropMesh ends the resident workers; the caller holds meshMu.
func (p *Prepared) dropMesh() {
	if p.mesh != nil {
		p.mesh.Close()
		p.mesh = nil
		p.meshBytes.Store(0)
	}
}

// reap ends the workers of a closed system unless a solve is running on
// them; that solve reaps on its way out.
func (p *Prepared) reap() {
	if p.closed.Load() && p.meshMu.TryLock() {
		p.dropMesh()
		p.meshMu.Unlock()
	}
}

// Close releases the worker processes "tcp" solves have left resident. It
// does not wait for a running solve — that solve ends them when it is done —
// and the system stays usable: later "tcp" solves start and stop their own
// workers. A system that never solved over "tcp" has nothing to close. A
// system that becomes unreachable unclosed is closed by a finalizer, some
// time later; call Close to end the workers when you are done with them.
func (p *Prepared) Close() {
	p.closed.Store(true)
	p.reap()
}

// rememberMisses keeps what the ranks of the first scalar solve under a
// profile traced. Concurrent first solves may each trace and each land here;
// they traced the same operators, so whichever is kept holds the same values.
func (p *Prepared) rememberMisses(profile string, costs []experiments.IterCostInputs) {
	held := append([]mprun.Operators(nil), p.parts...)
	for r := range held {
		m := costs[r].Misses()
		held[r].Misses = &m
	}
	p.tracedMu.Lock()
	defer p.tracedMu.Unlock()
	if p.traced == nil {
		p.traced = make(map[string][]mprun.Operators)
	}
	p.traced[profile] = held
}
