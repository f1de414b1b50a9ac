// Package mprun runs one rank's share of a distributed solve — the "rank
// job" — identically under both transport backends. There is one job,
// RunJob, over one spec: it adopts the rank's operators, which a set-up
// (Prepare, on goroutine ranks) built and held, dresses them for the
// requested solve and runs one solve of width K. A job never builds: the
// package does not know how. The facade's in-process path calls RunJob
// directly from goroutine ranks; the multi-process path ships the
// gob-encoded spec to fsairank worker processes (self-hosted by any binary
// that calls MaybeWorker) whose tcpmpi communicator runs the very same
// function. One code path on both sides is what makes the cross-backend
// differential tests meaningful: any divergence in results or meter
// structure is the transport's fault, not a drifted reimplementation of the
// solve.
//
// The worker processes are resident: a Mesh (Start, Run, Close) spawns one
// per rank and forms the mesh once — the ranks meet over loopback TCP, then
// exchange their messages through shared-memory rings (internal/tcpmpi); a
// worker runs every job on a fresh communicator and meter over its long-lived
// endpoint and keeps the operators of the first adopting job, so later jobs
// ship a right-hand side and solve parameters only. Mesh.Reusable says when a
// mesh may take another job.
package mprun

import (
	"fmt"

	"fsaicomm/internal/archmodel"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/simmpi"
)

// JobSpec is one rank's job: the operators it adopts, and the solve to run
// on them.
type JobSpec struct {
	// Layout is the row distribution; the rank owns rows Layout.Range(rank).
	Layout *distmat.Layout
	// Adopt hands the rank the operators a set-up built; adopting them costs
	// no communication.
	Adopt *Operators
	// Held is the wire form of an Adopt whose operators the receiving worker
	// keeps: a Mesh strips them (Adopt then carries only the traced misses)
	// and the worker puts its own back. Nobody else sets it.
	Held bool
	// K is the shape of the solve's answer, not a choice of loop: 0 asks for
	// a scalar solve — GMRES, or CG through krylov's width-1 views (every
	// variant, Stats with a trace, a modeled time) — and K ≥ 1 for the batch
	// entry points over K interleaved columns (classic and fused, one
	// outcome per column). The classic and fused CG loops are the same
	// k-wide bodies either way, so a 1-wide batch and a scalar solve compute
	// the same bits at the same cost.
	K int
	// B is this rank's rows of the permuted right-hand side: Hi−Lo values,
	// or for K ≥ 1 the (Hi−Lo)×K block interleaved row-major
	// (B[i*K+c] = local component i of column c).
	B []float64
	// Solve holds the solve-time knobs.
	Solve SolveParams
}

// HeldOp is one distributed operator as a finished set-up holds it: the
// localized rows (read-only, shared by concurrent solves) and the halo
// schedule as plain index lists plus the need-count matrix captured when the
// plan was built, from which a per-solve topology's node-aware relay
// schedule is derived with zero extra communication.
type HeldOp struct {
	LZ         *distmat.Localized
	Send, Recv [][]int
	Counts     []int64
}

// Hold captures an operator for later adoption. The schedule lists are
// referenced, not copied; every adopting solve wraps them in a fresh plan
// with private buffers.
func Hold(op *distmat.Op) *HeldOp {
	return &HeldOp{LZ: op.LZ, Send: op.Plan.SendPeers, Recv: op.Plan.RecvPeers, Counts: op.Plan.NeedCounts()}
}

// op rebuilds the operator under the communicator's topology.
func (h *HeldOp) op(c *simmpi.Comm) *distmat.Op {
	plan := distmat.NewHaloPlanFromScheduleTopo(h.Send, h.Recv, h.Counts, c.Rank(), c.Topology())
	return distmat.NewOpFromParts(h.LZ, plan)
}

// Operators is one rank's share of a finished set-up: A with the factor
// pair G/Gᵀ (the CG family) or with the explicit inverse M (SPAI + GMRES);
// the unused set is nil.
type Operators struct {
	A, G, GT, M *HeldOp
	// Misses is what an earlier job on these operators traced under the
	// solve's architecture profile; the job then assembles its cost inputs
	// from it instead of running the cache simulator again. Nil makes the
	// job trace.
	Misses *TracedMisses
}

// indexRuns builds the run index of each operator that arrived over the
// wire: gob ships the exported fields of its localized view, not the index.
func (o *Operators) indexRuns() {
	if o == nil {
		return
	}
	for _, h := range []*HeldOp{o.A, o.G, o.GT, o.M} {
		if h != nil && h.LZ != nil {
			h.LZ.IndexRuns()
		}
	}
}

// holds reports whether the set carries what the solver applies.
func (o *Operators) holds(gmres bool) bool {
	if o == nil {
		return false
	}
	if gmres {
		return o.A != nil && o.M != nil
	}
	return o.A != nil && o.G != nil && o.GT != nil
}

// SolveParams are the solve-time knobs of a job — everything that shapes
// the Krylov loop and its communication but not the operators' values.
type SolveParams struct {
	// Solver selects the loop: CG (the FSAI family) or restarted GMRES with
	// cycle length Restart (SPAI).
	Solver               krylov.Solver
	Restart              int
	Tol                  float64
	MaxIter              int
	Variant              krylov.CGVariant
	Trace                bool
	ResidualReplaceEvery int
	// Profile is the cost-model profile; the zero Profile means skylake.
	Profile archmodel.Profile
	// Precision FP32 narrows the factor operators, adds a float32 twin of A
	// and runs the FP64 iterative-refinement loop around the CG solve.
	Precision krylov.Precision
	// Nodes/RanksPerNode declare the two-level topology (0/0 = flat); under
	// a multi-rank topology the halo plans aggregate cross-node traffic per
	// node pair unless NoNodeAggregation keeps the flat per-rank schedule
	// (the metered baseline the node-aware benchmarks compare to).
	Nodes, RanksPerNode int
	NoNodeAggregation   bool
}

// Topology resolves the job's declared node grouping against the world
// size. The zero declaration yields the zero (flat) topology, keeping every
// pre-topology meter reading bit-identical.
func (j *JobSpec) Topology(size int) (simmpi.Topology, error) {
	if j.Solve.Nodes == 0 && j.Solve.RanksPerNode == 0 {
		return simmpi.Topology{}, nil
	}
	return simmpi.ResolveTopology(size, j.Solve.Nodes, j.Solve.RanksPerNode)
}

// ForRank returns rank's copy of a job template: the same job with B cut to
// the rank's rows of pb, the whole permuted right-hand side (interleaved for
// K ≥ 1).
func (j JobSpec) ForRank(rank int, pb []float64) *JobSpec {
	lo, hi := j.Layout.Range(rank)
	k := max(j.K, 1)
	j.B = pb[lo*k : hi*k]
	return &j
}

// check rejects a malformed spec before anything indexes into it, so a bad
// spec is an error on the sim path and in a worker's report, never a crash.
func (j *JobSpec) check(rank, size int) error {
	if j == nil || j.Layout == nil {
		return fmt.Errorf("mprun: empty job spec (no layout)")
	}
	if err := j.Layout.Validate(); err != nil {
		return fmt.Errorf("mprun: job spec: %w", err)
	}
	if j.Layout.NRanks() != size {
		return fmt.Errorf("mprun: job spec lays out %d ranks, world has %d", j.Layout.NRanks(), size)
	}
	gmres := j.Solve.Solver == krylov.SolverGMRES
	switch {
	case !j.Adopt.holds(gmres):
		return fmt.Errorf("mprun: adopted operators (those a worker holds: %v) do not hold what a %v solve needs", j.Held, j.Solve.Solver)
	case gmres && (j.K > 0 || j.Solve.Variant != krylov.CGClassic || j.Solve.Precision == krylov.FP32):
		return fmt.Errorf("mprun: GMRES runs one FP64 right-hand side on the classic blocking schedule (K = %d, variant %v, precision %v)", j.K, j.Solve.Variant, j.Solve.Precision)
	case j.K < 0:
		return fmt.Errorf("mprun: solve width K = %d is negative", j.K)
	}
	if want := j.Layout.LocalSize(rank) * max(j.K, 1); len(j.B) != want {
		return fmt.Errorf("mprun: rank %d right-hand side has %d values, want %d", rank, len(j.B), want)
	}
	return nil
}

// RankOutcome is what one rank's job reports back. The facade assembles the
// caller-facing result from the full outcome set; the multi-process launcher
// gob-ships outcomes from the workers.
type RankOutcome struct {
	Rank   int
	Lo, Hi int
	// XLocal is the rank's slice of the (possibly partial) solution; for a
	// batched job the interleaved (Hi−Lo)×K block.
	XLocal []float64
	// Solver statistics (meaningful on rank 0, which runs the canonical
	// residual recurrence; other ranks agree by construction). For a
	// batched job Iterations is the batch loop's count (the maximum over
	// columns) and Converged/RelResidual stay zero: see Batch.
	Iterations  int
	Converged   bool
	RelResidual float64
	// Canceled reports that the loop stopped on a context verdict.
	Canceled bool
	// Broken reports a scalar solver breakdown (NaN/Inf recurrence or
	// non-SPD curvature): the loop stopped early, XLocal is the partial
	// iterate. A batched job freezes broken columns one by one instead
	// (Batch.Broken).
	Broken bool
	// Refinements counts the FP64 iterative-refinement steps of a
	// mixed-precision solve (0 for FP64 solves); Iterations then counts the
	// total inner iterations across all steps.
	Refinements int
	// Trace is the rank's telemetry when the spec asked for it (rank 0).
	Trace *krylov.IterTrace
	// Batch carries the per-column outcomes of a batched job (nil for
	// scalar jobs).
	Batch *BatchOutcome
	// Cost is the rank's modeled per-iteration cost inputs (scalar jobs).
	Cost IterCostInputs
	// SolveComm is this rank's metered traffic over the job, which adopting
	// its operators adds nothing to: the solve's. Summed over ranks it gives
	// the deterministic world totals the differential tests compare bit for
	// bit.
	SolveComm simmpi.Snapshot
	// Waits is how the blocking waits of the rank's goroutine ended over the
	// job: on the channel backend every receive, on the ring backend what a
	// Comm waits for by itself (self-receives, nonblocking operations). It
	// tells who arrived first, so no two runs need agree on it.
	Waits simmpi.Waits
	// SolveNanos is the rank's wall-clock time in the Krylov loop.
	SolveNanos int64
}

// BatchOutcome is the per-column solver outcome of a batched rank job.
type BatchOutcome struct {
	K           int
	Iterations  []int
	Converged   []bool
	RelResidual []float64
	Broken      []bool
}

func newBatchOutcome(bs krylov.BatchStats) *BatchOutcome {
	o := &BatchOutcome{
		K:           bs.K,
		Iterations:  make([]int, bs.K),
		Converged:   make([]bool, bs.K),
		RelResidual: make([]float64, bs.K),
		Broken:      append([]bool(nil), bs.Broken...),
	}
	for c := range bs.Cols {
		o.Iterations[c] = bs.Cols[c].Iterations
		o.Converged[c] = bs.Cols[c].Converged
		o.RelResidual[c] = bs.Cols[c].RelResidual
	}
	return o
}
