package krylov

// Per-iteration solver telemetry. Every CG loop in this package can record,
// behind the opt-in Options.Trace flag, one IterRecord per iteration: the
// relative residual, the α/β recurrence scalars of the update that produced
// it, and the rank's communication delta since the previous record, taken
// from cheap simmpi.Meter.RankSnapshot diffs. Records are cut at loop-pass
// boundaries, so Setup plus the record deltas always sum exactly to the
// rank's metered totals for the solve — the conservation property the
// telemetry tests assert. When Trace is off no tracer is built and the
// solve paths allocate nothing extra (the AllocsPerRun=0 guarantee of the
// workspace-backed steady state is unchanged).

import (
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/vecops"
)

// CommDelta is one rank's communication traffic between two trace points:
// point-to-point (halo) bytes/messages it sent and collectives it entered.
type CommDelta struct {
	CollectiveCalls int64 `json:"collective_calls"`
	CollectiveBytes int64 `json:"collective_bytes"`
	P2PBytes        int64 `json:"p2p_bytes"`
	P2PMessages     int64 `json:"p2p_messages"`
}

// add accumulates another delta (used by the conservation tests' helpers
// via the exported Total method on IterTrace).
func (d *CommDelta) add(o CommDelta) {
	d.CollectiveCalls += o.CollectiveCalls
	d.CollectiveBytes += o.CollectiveBytes
	d.P2PBytes += o.P2PBytes
	d.P2PMessages += o.P2PMessages
}

// IterRecord is the telemetry of one CG iteration on one rank.
type IterRecord struct {
	// Iter is the iteration number, matching Stats.Iterations counting.
	Iter int `json:"iter"`
	// RelResidual is ‖r‖/‖r₀‖ after this iteration's update.
	RelResidual float64 `json:"rel_residual"`
	// Alpha and Beta are the recurrence scalars of the update that produced
	// this iteration's residual (Beta is 0 on the first iteration).
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
	// Comm is the rank's traffic since the previous record (or since Setup
	// for the first record). Communication-hiding loops post traffic for
	// iteration k+1 during pass k, so deltas are loop-pass attribution: they
	// sum exactly to the solve totals but individual rows can lead the
	// iteration by one operator application.
	Comm CommDelta `json:"comm"`
}

// RefineRecord is the telemetry of one iterative-refinement step of a
// mixed-precision solve: the inner solve's iteration count, the FP64
// relative residual after the correction, and the rank's traffic for the
// whole step (inner solve plus outer residual recomputation).
type RefineRecord struct {
	// Step is the refinement number, starting at 1.
	Step int `json:"step"`
	// InnerIterations is the number of inner mixed-precision CG iterations
	// this step ran.
	InnerIterations int `json:"inner_iterations"`
	// RelResidual is the FP64 ‖b − A·x‖/‖b‖ after this step's correction.
	RelResidual float64 `json:"rel_residual"`
	// Comm is the rank's traffic since the previous record.
	Comm CommDelta `json:"comm"`
}

// IterTrace is one rank's per-iteration telemetry for a solve, recorded
// when Options.Trace is set.
type IterTrace struct {
	// Rank is the recording rank (0 in serial solves).
	Rank int `json:"rank"`
	// Setup is the traffic between solver entry and the first iteration
	// (initial residual/preconditioner work, setup reductions).
	Setup CommDelta `json:"setup"`
	// Iters has one record per iteration.
	Iters []IterRecord `json:"iters"`
	// Refines has one record per iterative-refinement step of a
	// mixed-precision solve (DistCGRefined, DistCGBatchRefined); empty for
	// plain FP64 solves. Refined solves record at refinement granularity —
	// each record's delta spans its whole inner solve — so Setup + Iters +
	// Refines still sums exactly to the metered totals.
	Refines []RefineRecord `json:"refines,omitempty"`
}

// Total returns Setup plus every record's delta — by construction exactly
// the rank's metered traffic between solver entry and exit.
func (t *IterTrace) Total() CommDelta {
	sum := t.Setup
	for i := range t.Iters {
		sum.add(t.Iters[i].Comm)
	}
	for i := range t.Refines {
		sum.add(t.Refines[i].Comm)
	}
	return sum
}

// tracer cuts CommDeltas at loop-pass boundaries. A nil *tracer is valid
// and records nothing, so the solve loops call its methods unconditionally
// without branching on Options.Trace at every site.
type tracer struct {
	c    *simmpi.Comm // nil in serial solves
	tr   IterTrace
	last simmpi.Snapshot
}

// newTracer returns nil when tracing is off — the loops then skip all
// telemetry work and allocate nothing.
func newTracer(on bool, c *simmpi.Comm) *tracer {
	if !on {
		return nil
	}
	t := &tracer{c: c}
	if c != nil {
		t.tr.Rank = c.Rank()
		t.last = c.Meter().RankSnapshot(c.Rank())
	}
	return t
}

// delta returns the rank's traffic since the previous cut and advances the
// cut point.
func (t *tracer) delta() CommDelta {
	if t.c == nil {
		return CommDelta{}
	}
	now := t.c.Meter().RankSnapshot(t.c.Rank())
	d := now.Sub(t.last)
	t.last = now
	return CommDelta{
		CollectiveCalls: d.CollectiveCalls,
		CollectiveBytes: d.CollectiveBytes,
		P2PBytes:        d.P2PBytes,
		P2PMessages:     d.P2PMessages,
	}
}

// setup closes the pre-loop phase. Call once, right before the first
// iteration's work.
func (t *tracer) setup() {
	if t == nil {
		return
	}
	t.tr.Setup = t.delta()
}

// record closes one loop pass.
func (t *tracer) record(iter int, relres, alpha, beta float64) {
	if t == nil {
		return
	}
	t.tr.Iters = append(t.tr.Iters, IterRecord{
		Iter: iter, RelResidual: relres, Alpha: alpha, Beta: beta, Comm: t.delta(),
	})
}

// refine closes one iterative-refinement step (inner solve + FP64 residual
// recomputation and correction).
func (t *tracer) refine(step, innerIters int, relres float64) {
	if t == nil {
		return
	}
	t.tr.Refines = append(t.tr.Refines, RefineRecord{
		Step: step, InnerIterations: innerIters, RelResidual: relres, Comm: t.delta(),
	})
}

// trace returns the accumulated trace, or nil when tracing was off.
func (t *tracer) trace() *IterTrace {
	if t == nil {
		return nil
	}
	return &t.tr
}

// finish stamps the fields every return path of the CG variants must agree
// on — the cumulative flop count and the attached trace — so early exits
// (zero RHS, breakdown, iteration-cap) report the same Stats shape as
// normal convergence.
func finish(st Stats, fc *vecops.FlopCounter, t *tracer) Stats {
	st.Flops = fc.Count()
	st.Trace = t.trace()
	return st
}
