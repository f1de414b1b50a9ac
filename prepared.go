package fsaicomm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fsaicomm/internal/archmodel"
	"fsaicomm/internal/core"
	"fsaicomm/internal/dense"
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

// perSolve is the per-solve half of opt, the inverse of over:
// perSolve(opt).over(opt) is opt.
func perSolve(opt Options) SolveOptions {
	return SolveOptions{
		Tol:                  opt.Tol,
		MaxIter:              opt.MaxIter,
		CGVariant:            opt.CGVariant,
		Restart:              opt.Restart,
		Arch:                 opt.Arch,
		Trace:                opt.Trace,
		ResidualReplaceEvery: opt.ResidualReplaceEvery,
		Transport:            opt.Transport,
		Nodes:                opt.Nodes,
		RanksPerNode:         opt.RanksPerNode,
		NoNodeAggregation:    opt.NoNodeAggregation,
	}
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
	n        int
	ranks    int
	setupOpt Options // canonicalized setup options (informational)
	// st is what the analyse phase found, shared read-only with the system
	// this one was refactored from and with those refactored from it; plans
	// holds, per rank, the factor structure the values were moved through —
	// the donor's own where the filter left its pattern standing.
	st        *structure
	plans     []*core.FactorPlan
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
	traced   map[archmodel.Profile][]mprun.Operators
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

// ErrPatternMismatch is wrapped by the error Refactor returns for a matrix
// whose shape or sparsity pattern is not the one the system was analysed for.
var ErrPatternMismatch = errors.New("fsaicomm: matrix does not have the analysed sparsity pattern")

// distribution is the part of the analyse phase every distributed set-up
// starts with: the partition as a contiguous layout, the permutation that
// realizes it, and the permuted matrix as a pattern with, for each of its
// entries, the entry of the caller's matrix it is.
type distribution struct {
	layout   *distmat.Layout
	oldToNew []int
	pa       *Matrix // no values
	src      []int
	// partition and permute are what the two steps took.
	partition, permute time.Duration
}

// distribute partitions a's rows over ranks. It reads a's pattern only.
func distribute(a *Matrix, opt Options, ranks int) (*distribution, error) {
	t0 := time.Now()
	part, err := partitionRows(a, opt, ranks)
	if err != nil {
		return nil, err
	}
	d := &distribution{partition: time.Since(t0)}
	t0 = time.Now()
	d.layout, d.oldToNew = distmat.PartitionLayout(part, ranks)
	d.pa, d.src = distmat.PermutePattern(a, d.oldToNew)
	d.permute = time.Since(t0)
	return d, nil
}

// permuted returns the permuted matrix with vals, the entries of a matrix
// with the distributed pattern, in their permuted places.
func (d *distribution) permuted(vals []float64) *Matrix {
	pa := *d.pa
	pa.Val = distmat.Gather(vals, d.src)
	return &pa
}

// structure is the result of the analyse phase: what follows from a matrix's
// sparsity pattern and the set-up options alone. Nothing writes to it once
// analyse returns, so the factor phase may run on it any number of times,
// concurrently too.
type structure struct {
	*distribution
	opt Options // canonical: defaults applied, rank count resolved
	// aPtr and aIdx are a copy of the analysed pattern, what Refactor holds a
	// matrix against.
	aPtr, aIdx []int
	syms       []*core.Symbolic // per rank
	phases     SetupPhases
	took       time.Duration
}

// analyse is the analyse phase: partition, permutation, and on every rank
// core.Analyse of its rows. It reads a's pattern only.
func analyse(a *Matrix, opt Options) (*structure, error) {
	t0 := time.Now()
	d, err := distribute(a, opt, opt.Ranks)
	if err != nil {
		return nil, err
	}
	st := &structure{
		distribution: d,
		opt:          opt,
		aPtr:         slices.Clone(a.RowPtr),
		aIdx:         slices.Clone(a.ColIdx),
		syms:         make([]*core.Symbolic, opt.Ranks),
	}
	cfg := buildConfig(opt)
	rankPhases := make([]core.SetupPhases, opt.Ranks)
	if _, err := simmpi.Run(opt.Ranks, time.Hour, func(c *simmpi.Comm) error {
		lo, hi := d.layout.Range(c.Rank())
		sym, err := core.Analyse(c, d.layout, distmat.ExtractLocalRows(d.pa, lo, hi), cfg)
		if err != nil {
			return err
		}
		st.syms[c.Rank()], rankPhases[c.Rank()] = sym, sym.Phases
		return nil
	}); err != nil {
		return nil, err
	}
	st.phases = SetupPhases{Partition: d.partition, Permute: d.permute, SetupPhases: core.MeanPhases(rankPhases)}
	st.took = time.Since(t0)
	return st, nil
}

// factor is the factor phase: a's values, moved through the analysed
// structure, make the operators of a new system. With a donor — a system
// factored on st before — each rank first tries the donor's factor plan. The
// build is the plain FP64 one in the blocking schedule: variant and precision
// are chosen per solve, and the rank job dresses its private operators for
// them without communication.
func (st *structure) factor(a *Matrix, donor *Prepared) (*Prepared, error) {
	t0 := time.Now()
	ranks := st.opt.Ranks
	p := &Prepared{
		n:        a.Rows,
		ranks:    ranks,
		setupOpt: st.opt,
		st:       st,
		plans:    make([]*core.FactorPlan, ranks),
		parts:    make([]mprun.Operators, ranks),
		pools:    make([]sync.Pool, ranks),
	}
	pa := st.permuted(a.Val)
	permute := time.Since(t0)
	rankPhases := make([]core.SetupPhases, ranks)
	if _, err := simmpi.Run(ranks, time.Hour, func(c *simmpi.Comm) error {
		r := c.Rank()
		lo, hi := st.layout.Range(r)
		var prev *core.FactorPlan
		if donor != nil {
			prev = donor.plans[r]
		}
		bd, err := st.syms[r].Factor(c, pa.Val[pa.RowPtr[lo]:pa.RowPtr[hi]], prev)
		if err != nil {
			return err
		}
		rankPhases[r], p.plans[r] = bd.Phases, bd.Plan
		held := mprun.Operators{A: mprun.Hold(bd.AOp)}
		if st.opt.Method == SPAI {
			held.M = mprun.Hold(bd.MOp)
		} else {
			held.G, held.GT = mprun.Hold(bd.GOp), mprun.Hold(bd.GTOp)
		}
		p.parts[r] = held
		if r == 0 {
			p.pct = bd.PctNNZIncrease
			p.imbalance = bd.ImbalanceIndex
		}
		return nil
	}); err != nil {
		if errors.Is(err, dense.ErrNotPositiveDefinite) {
			err = fmt.Errorf("%w: %w", ErrNotSPD, err)
		}
		return nil, err
	}
	p.phases = SetupPhases{Permute: permute, SetupPhases: core.MeanPhases(rankPhases)}
	p.setup = time.Since(t0)
	if donor == nil { // the system the structure was analysed for pays for that too
		p.phases.Partition, p.phases.Extend = st.phases.Partition, st.phases.Extend
		p.phases.Permute += st.phases.Permute
		p.phases.HaloPlans += st.phases.HaloPlans
		p.setup += st.took
	}
	for i := range p.pools {
		p.pools[i].New = func() any { return &krylov.Workspace{} }
	}
	// The net under a caller that drops a system without Close, as os.File
	// has one: worker processes must not outlive every reference to it.
	runtime.SetFinalizer(p, (*Prepared).Close)
	return p, nil
}

// Prepare partitions A, builds the selected preconditioner variant and the
// halo schedules, and returns a Prepared system ready for repeated solves.
// It is the analyse phase, which reads A's sparsity pattern, followed by the
// factor phase, which reads its values; Refactor runs the second alone. The
// setup-phase communication (plan index exchange, remote row gather,
// distributed transpose) happens exactly once, here.
func Prepare(a *Matrix, opt Options) (*Prepared, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := checkInputMatrix(a, opt.Solver); err != nil {
		return nil, err
	}
	return prepare(a, opt)
}

// prepare is Prepare on checked input.
func prepare(a *Matrix, opt Options) (*Prepared, error) {
	opt = opt.withDefaults(a.Rows)
	opt.Ranks = AutoRanks(a, opt.Ranks)
	st, err := analyse(a, opt)
	if err != nil {
		return nil, err
	}
	return st.factor(a, nil)
}

// prepareOnce is the set-up of a one-off solve on checked input: the node
// grouping is checked against the rank count before anything is built,
// since the solve would reject it after.
func prepareOnce(a *Matrix, opt Options) (*Prepared, error) {
	if _, err := resolveTopology(AutoRanks(a, opt.Ranks), opt.Nodes, opt.RanksPerNode); err != nil {
		return nil, err
	}
	return prepare(a, opt)
}

// Refactor prepares the system of a matrix that has the sparsity pattern p
// was prepared for and other values — the next Newton step, the next time
// step — under p's set-up options: the factor phase alone, on the structure
// p holds. The new system equals Prepare(a, p.Options()) bit for bit. It
// shares every index array with p, read-only, and owns only its values, so
// either may be dropped or closed without the other noticing; p stays
// usable throughout, concurrent solves included. A pattern the values shape
// is checked, not assumed: where a Filter leaves other entries standing than
// it did for p, G and Gᵀ are planned afresh. Options whose first pattern
// depends on values (Threshold, PatternLevel above 1, SPAI) reuse the
// partition, the permutation and A's operator and rebuild the rest. A matrix
// of another shape or pattern gets an ErrPatternMismatch-wrapped error.
func (p *Prepared) Refactor(a *Matrix) (*Prepared, error) {
	st := p.st
	if a.Rows != p.n || a.Cols != p.n || !slices.Equal(a.RowPtr, st.aPtr) || !slices.Equal(a.ColIdx, st.aIdx) {
		return nil, fmt.Errorf("%w (%dx%d with %d entries, analysed %dx%d with %d)",
			ErrPatternMismatch, a.Rows, a.Cols, len(a.ColIdx), p.n, p.n, len(st.aIdx))
	}
	// The structure is that of a matrix Prepare validated; the values are new.
	if len(a.Val) != len(a.ColIdx) {
		return nil, fmt.Errorf("fsaicomm: invalid matrix: %d values for %d entries", len(a.Val), len(a.ColIdx))
	}
	if !a.IsFinite() {
		return nil, fmt.Errorf("%w: matrix contains NaN or Inf values", ErrInvalidOptions)
	}
	if err := checkSolverMatrix(a, st.opt.Solver); err != nil {
		return nil, err
	}
	return st.factor(a, p)
}

// Ranks returns the simulated-process count the system was prepared for.
func (p *Prepared) Ranks() int { return p.ranks }

// Rows returns the system dimension.
func (p *Prepared) Rows() int { return p.n }

// SetupTime returns the wall-clock cost of the Prepare or Refactor that made
// p — the time every solve served from this Prepared avoids paying again.
func (p *Prepared) SetupTime() time.Duration { return p.setup }

// SetupPhases says where the wall-clock time of one Prepare or Refactor
// went. A phase that did not run reads 0: a Refactor partitions nothing and
// extends nothing, and moves values where Prepare also plans.
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

// SetupPhases returns the breakdown of the Prepare or Refactor that built p.
func (p *Prepared) SetupPhases() SetupPhases { return p.phases }

// PctNNZIncrease returns the factor pattern growth versus the FSAI baseline.
func (p *Prepared) PctNNZIncrease() float64 { return p.pct }

// Options returns the canonicalized setup options (defaults applied,
// automatic rank count resolved).
func (p *Prepared) Options() Options { return p.setupOpt }

// SizeBytes estimates the memory the prepared system keeps alive — the
// localized matrix and factors with their run indexes, the halo schedules,
// and the analysed structure behind them — for cache byte-budget
// accounting. Every array the system references counts in full, whether or
// not a system it was
// refactored from (or one refactored from it) references it too: a cache
// that sums SizeBytes over such systems charges their shared structure once
// per system, so its budget stays an upper bound on what they hold. Small
// fixed overheads are ignored. While "tcp" solves keep worker processes
// resident the figure grows by the workers' copy of the operators, their
// measured idle resident set and the shared memory of their rings, so a cache
// that re-reads it after a solve bounds the processes with its byte budget.
func (p *Prepared) SizeBytes() int64 {
	return p.operatorBytes() + p.st.sizeBytes(p.plans) + p.meshBytes.Load()
}

// sizeBytes is what the structure holds beyond the operators' own index
// arrays, with the factor plans of one system on it.
func (st *structure) sizeBytes(plans []*core.FactorPlan) int64 {
	words := len(st.aPtr) + len(st.aIdx) + len(st.oldToNew) + len(st.pa.RowPtr) + len(st.pa.ColIdx) + len(st.src)
	total := 8 * int64(words)
	for r, sym := range st.syms {
		total += sym.SizeBytes(plans[r])
	}
	return total
}

func (p *Prepared) operatorBytes() int64 {
	var total int64
	for i := range p.parts {
		r := &p.parts[i]
		for _, h := range []*mprun.HeldOp{r.A, r.G, r.GT, r.M} {
			if h == nil {
				continue
			}
			words := len(h.LZ.M.RowPtr) + len(h.LZ.M.ColIdx) + len(h.LZ.M.Val) + len(h.LZ.Halo) + h.LZ.Runs().Words()
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
	if err := checkFiniteRHS(b); err != nil {
		return nil, err
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
	p.tracedMu.Lock()
	held, known := p.traced[sp.Profile]
	p.tracedMu.Unlock()
	if !known {
		held = p.parts
	}
	job := mprun.JobSpec{Layout: p.st.layout, K: k, Solve: sp}
	f, err := p.runRanks(ctx, so.Transport, job, held, pools, rhs)
	if err != nil {
		return nil, err
	}
	f.pct, f.imb = p.pct, p.imbalance
	if !known && k == 0 { // batched jobs assemble no cost inputs
		p.rememberMisses(sp.Profile, f.costs)
	}
	return f, nil
}

// runResident runs one set of rank jobs, jobs[r] on rank r, on the system's
// own mesh of worker processes, started here if there is none, whose
// workers keep the operators after the first job. The mesh survives the job only if every
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
		p.meshBytes.Store(p.operatorBytes() + mesh.IdleRSS() + mesh.RingBytes())
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
func (p *Prepared) rememberMisses(profile archmodel.Profile, costs []mprun.IterCostInputs) {
	held := append([]mprun.Operators(nil), p.parts...)
	for r := range held {
		m := costs[r].Misses()
		held[r].Misses = &m
	}
	p.tracedMu.Lock()
	defer p.tracedMu.Unlock()
	if p.traced == nil {
		p.traced = make(map[archmodel.Profile][]mprun.Operators)
	}
	p.traced[profile] = held
}
