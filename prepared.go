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

	"fsaicomm/internal/core"
	"fsaicomm/internal/dense"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/mprun"
	"fsaicomm/internal/simmpi"
)

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
	n     int
	ranks int
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
	// misses maps each profile a scalar solve ran under to every rank's
	// traced cache misses ([]mprun.TracedMisses), which later solves adopt:
	// the simulator walks the sparsity once per profile, shared by each
	// system refactored from this one that kept every rank's factor plan.
	misses *sync.Map
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
	opt Options // the canonical set-up group
	// aPtr and aIdx are a copy of the analysed pattern, what Refactor holds a
	// matrix against.
	aPtr, aIdx []int
	syms       []*core.Symbolic // per rank
	phases     SetupPhases
	took       time.Duration
}

// analyse is the analyse phase: partition, permutation, and on every rank
// core.Analyse of its rows, with workers in each rank's pool. It reads a's
// pattern only.
func analyse(a *Matrix, opt Options, workers int) (*structure, error) {
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
	cfg := buildConfig(opt, workers)
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
		n:     a.Rows,
		ranks: ranks,
		st:    st,
		plans: make([]*core.FactorPlan, ranks),
		parts: make([]mprun.Operators, ranks),
		pools: make([]sync.Pool, ranks),
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
		if st.opt.Precision == FP32 {
			// FP32 solves read float32 copies of A, G and Gᵀ, kept on the
			// shared localized views: made here, they are charged from the
			// system's first SizeBytes on.
			for _, h := range []*mprun.HeldOp{held.A, held.G, held.GT} {
				h.LZ.M32()
			}
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
	// The misses follow from A's analysed structure and the factor plans: a
	// system that kept every rank's plan has its donor's. SPAI keeps none.
	p.misses = new(sync.Map)
	if donor != nil && st.opt.Method != SPAI && slices.Equal(p.plans, donor.plans) {
		p.misses = donor.misses
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
	setup, err := opt.setUp(a, false)
	if err != nil {
		return nil, err
	}
	return prepare(a, setup, opt.Workers)
}

// prepare is Prepare on checked input: the canonical set-up group and the
// worker pool of each rank.
func prepare(a *Matrix, setup Options, workers int) (*Prepared, error) {
	st, err := analyse(a, setup, workers)
	if err != nil {
		return nil, err
	}
	return st.factor(a, nil)
}

// prepareOnce is the set-up of a one-off solve of rhs, batched or not,
// refused before any work if Prepare or the solve would refuse it.
func prepareOnce(a *Matrix, rhs [][]float64, opt Options, batch bool) (*Prepared, error) {
	setup, err := opt.setUp(a, batch)
	if err == nil {
		err = checkRHS(rhs, a.Rows)
	}
	if err != nil {
		return nil, err
	}
	return prepare(a, setup, opt.Workers)
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

// Options returns the canonical set-up group the system was prepared for
// (see Options.Canonical).
func (p *Prepared) Options() Options { return p.st.opt }

// SizeBytes estimates the memory the prepared system keeps alive — the
// localized matrix and factors with their run indexes and, for FP32, their
// float32 values, the halo schedules, and the analysed structure behind
// them — for cache byte-budget
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
			if p.st.opt.Precision == FP32 {
				total += 4 * int64(len(h.LZ.M.Val))
			}
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
// with an ErrCanceled-wrapped error. A nil ctx is never canceled, over
// either transport.
func (p *Prepared) Solve(ctx context.Context, b []float64, so SolveOptions) (*Result, error) {
	if err := p.check(so, [][]float64{b}, false); err != nil {
		return nil, err
	}
	f, err := p.run(ctx, [][]float64{b}, 0, so, p.pools)
	if err != nil {
		return nil, err
	}
	return f.result()
}

// check refuses a solve of rhs on p under so, batched or not, for what a
// solve anywhere is refused for: a per-solve field, a combination with p's
// set-up group, a right-hand side.
func (p *Prepared) check(so SolveOptions, rhs [][]float64, batch bool) error {
	err := so.Validate()
	if err == nil {
		err = cell(p.st.opt, so, batch)
	}
	if err == nil {
		err = checkRHS(rhs, p.n)
	}
	return err
}

// run is the cached-set-up path behind Solve (k = 0) and SolveBatch
// (k = len(rhs)): one rank job per rank that adopts the operators Prepare
// holds and solves under so. The worker processes of a tcp solve receive
// the held operators over the wire, once per mesh, and run every job on a
// fresh workspace, so pools only ever serve sim ranks.
func (p *Prepared) run(ctx context.Context, rhs [][]float64, k int, so SolveOptions, pools []sync.Pool) (*rankFold, error) {
	sp := solveParams(p.st.opt, so, p.n)
	held := p.parts
	traced, known := p.misses.Load(sp.Profile)
	if known {
		held = slices.Clone(p.parts)
		for r := range held {
			held[r].Misses = &traced.([]mprun.TracedMisses)[r]
		}
	}
	job := mprun.JobSpec{Layout: p.st.layout, K: k, Solve: sp}
	f, err := p.runRanks(ctx, so.Transport, job, held, pools, rhs)
	if err != nil {
		return nil, err
	}
	f.tot.PctNNZIncrease, f.tot.ImbalanceIndex = p.pct, p.imbalance
	if !known && k == 0 { // batched jobs assemble no cost inputs
		// Concurrent first solves may each trace and each store; they traced
		// the same sparsity, so whichever is kept holds the same values.
		misses := make([]mprun.TracedMisses, len(f.costs))
		for r := range f.costs {
			misses[r] = f.costs[r].Misses()
		}
		p.misses.Store(sp.Profile, misses)
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
