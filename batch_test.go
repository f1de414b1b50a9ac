package fsaicomm

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func batchRHS(a *Matrix, k int) [][]float64 {
	rhs := make([][]float64, k)
	for c := range rhs {
		rhs[c] = GenerateRHS(a, int64(40+c))
	}
	return rhs
}

// A batched solve is bit-identical per column to the scalar solve of that
// column alone — same solution vector, same iteration count, same final
// residual, same refinements — for both batched CG variants and both
// precisions, on the full-setup path, sim and tcp. Scalar and batched
// solves run the same k-wide loops, at width 1 and k; this is the
// facade-level half of the oracle that licenses having no scalar loop.
func TestSolveBatchMatchesSolveDistributed(t *testing.T) {
	a := GenerateElasticity2D(9, 9, 3)
	for _, tc := range []struct {
		v    CGVariant
		prec Precision
		k    int
		// same gives every column the same right-hand side: the columns stop
		// together, so the batch must also pay exactly the scalar solve's
		// collective calls and halo messages, with k× its halo bytes.
		same      bool
		transport string
	}{
		{v: CGClassic, prec: FP64, k: 3},
		{v: CGFused, prec: FP64, k: 3},
		{v: CGClassic, prec: FP64, k: 1},
		// A k-wide refined batch shares one inner tolerance (the tightest
		// column's), so only a 1-wide batch, or one of equal columns, repeats
		// the scalar refinement bit for bit.
		{v: CGClassic, prec: FP32, k: 1},
		{v: CGFused, prec: FP32, k: 1},
		{v: CGClassic, prec: FP32, k: 3, same: true},
		{v: CGFused, prec: FP32, k: 3, same: true},
		{v: CGFused, prec: FP64, k: 3, same: true},
		{v: CGFused, prec: FP32, k: 3, same: true, transport: "tcp"},
	} {
		if tc.transport == "tcp" && testing.Short() {
			continue // spawns worker processes
		}
		v, k := fmt.Sprintf("%v/%v/k=%d/same=%v/%s", tc.v, tc.prec, tc.k, tc.same, tc.transport), tc.k
		rhs := batchRHS(a, k)
		if tc.same {
			for c := range rhs {
				rhs[c] = rhs[0]
			}
		}
		opt := Options{Method: FSAIEComm, Filter: 0.01, Ranks: 3, CGVariant: tc.v, Precision: tc.prec,
			Tol: 1e-11, Transport: tc.transport}
		br, err := SolveBatch(a, rhs, opt)
		if err != nil {
			t.Fatalf("%v: SolveBatch: %v", v, err)
		}
		if !br.AllConverged() {
			t.Fatalf("%v: batch did not converge", v)
		}
		maxIters := 0
		for c := 0; c < k; c++ {
			ref, err := SolveDistributed(a, rhs[c], opt)
			if err != nil {
				t.Fatalf("%v col %d: %v", v, c, err)
			}
			col := br.Cols[c]
			if col.Iterations != ref.Iterations || col.Converged != ref.Converged ||
				col.RelResidual != ref.RelResidual || br.Refinements != ref.Refinements {
				t.Fatalf("%v col %d: stats (%d, %v, %g, %d refinements), scalar (%d, %v, %g, %d)",
					v, c, col.Iterations, col.Converged, col.RelResidual, br.Refinements,
					ref.Iterations, ref.Converged, ref.RelResidual, ref.Refinements)
			}
			for i := range ref.X {
				if col.X[i] != ref.X[i] {
					t.Fatalf("%v col %d: x[%d] = %g, scalar %g", v, c, i, col.X[i], ref.X[i])
				}
			}
			if ref.Iterations > maxIters {
				maxIters = ref.Iterations
			}
			if tc.same && (br.CollectiveCalls != ref.CollectiveCalls || br.CommMessages != ref.CommMessages ||
				br.CommBytes != int64(k)*ref.CommBytes) {
				t.Fatalf("%v: batch (%d calls, %d msgs, %d B), scalar (%d, %d, %d): want equal calls and messages, %d× bytes",
					v, br.CollectiveCalls, br.CommMessages, br.CommBytes,
					ref.CollectiveCalls, ref.CommMessages, ref.CommBytes, k)
			}
		}
		if tc.prec == FP32 && br.Refinements < 2 {
			t.Fatalf("%v: %d refinements; the case is meant to refine at least twice", v, br.Refinements)
		}
		// The batch loop runs until its slowest column converges; columns
		// that converge earlier freeze at their own scalar iteration count.
		if br.Iterations != maxIters {
			t.Fatalf("%v: batch iterations %d, max scalar %d", v, br.Iterations, maxIters)
		}
	}
}

// The metered proof of the batching win, at the facade level: solving the
// SAME right-hand side k times in one batch costs exactly the scalar
// solve's collective calls and halo messages (a k× per-RHS drop), with k×
// the halo bytes (the same values, coalesced into one message per
// neighbour).
func TestPreparedSolveBatchMeteredKFoldDrop(t *testing.T) {
	a := GeneratePoisson2D(24, 24)
	b := GenerateRHS(a, 5)
	p, err := Prepare(a, Options{Method: FSAIEComm, Filter: 0.01, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	rhs := make([][]float64, k)
	for c := range rhs {
		rhs[c] = b
	}
	for _, v := range []CGVariant{CGClassic, CGFused} {
		solo, err := p.Solve(context.Background(), b, SolveOptions{CGVariant: v})
		if err != nil {
			t.Fatalf("%v solo: %v", v, err)
		}
		br, err := p.SolveBatch(context.Background(), rhs, SolveOptions{CGVariant: v})
		if err != nil {
			t.Fatalf("%v batch: %v", v, err)
		}
		for c := 0; c < k; c++ {
			if br.Cols[c].Iterations != solo.Iterations {
				t.Fatalf("%v col %d: %d iterations, solo %d", v, c, br.Cols[c].Iterations, solo.Iterations)
			}
			for i := range solo.X {
				if br.Cols[c].X[i] != solo.X[i] {
					t.Fatalf("%v col %d: x[%d] diverges from solo", v, c, i)
				}
			}
		}
		if solo.CommMessages == 0 || solo.CollectiveCalls == 0 {
			t.Fatalf("%v: degenerate solo meters (%d msgs, %d colls)", v, solo.CommMessages, solo.CollectiveCalls)
		}
		// k columns, the scalar schedule's message and collective counts:
		// per RHS both dropped exactly k×.
		if br.CollectiveCalls != solo.CollectiveCalls {
			t.Fatalf("%v: batch collective calls %d, solo %d (want equal: k-wide reductions)",
				v, br.CollectiveCalls, solo.CollectiveCalls)
		}
		if br.CommMessages != solo.CommMessages {
			t.Fatalf("%v: batch halo messages %d, solo %d (want equal: coalesced exchange)",
				v, br.CommMessages, solo.CommMessages)
		}
		if br.CommBytes != int64(k)*solo.CommBytes {
			t.Fatalf("%v: batch halo bytes %d, solo %d (want exactly k×)",
				v, br.CommBytes, solo.CommBytes)
		}
		if br.SetupTime != 0 {
			t.Fatalf("%v: prepared batch reports setup time %v", v, br.SetupTime)
		}
	}
}

// Prepared.SolveBatch with distinct RHS matches per-column Prepared.Solve
// bit for bit, and columns freeze at their own convergence points.
func TestPreparedSolveBatchDistinctRHS(t *testing.T) {
	a := GeneratePoisson2D(20, 20)
	p, err := Prepare(a, Options{Method: FSAIEComm, Filter: 0.01, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	rhs := batchRHS(a, k)
	br, err := p.SolveBatch(context.Background(), rhs, SolveOptions{CGVariant: CGFused})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < k; c++ {
		ref, err := p.Solve(context.Background(), rhs[c], SolveOptions{CGVariant: CGFused})
		if err != nil {
			t.Fatalf("col %d: %v", c, err)
		}
		if br.Cols[c].Iterations != ref.Iterations {
			t.Fatalf("col %d: %d iterations, scalar %d", c, br.Cols[c].Iterations, ref.Iterations)
		}
		for i := range ref.X {
			if br.Cols[c].X[i] != ref.X[i] {
				t.Fatalf("col %d: x[%d] = %g, scalar %g", c, i, br.Cols[c].X[i], ref.X[i])
			}
		}
	}
}

// The tcp transport runs the identical batched rank job: solution columns,
// per-column stats and the metered communication structure must match the
// sim backend bit for bit.
func TestSolveBatchTransportDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	a := GeneratePoisson2D(24, 24)
	const k = 3
	rhs := batchRHS(a, k)
	opt := Options{Method: FSAIEComm, Filter: 0.01, Ranks: 4, CGVariant: CGClassic}
	sim, err := SolveBatch(a, rhs, opt)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	opt.Transport = "tcp"
	tcp, err := SolveBatch(a, rhs, opt)
	if err != nil {
		t.Fatalf("tcp: %v", err)
	}
	if tcp.Iterations != sim.Iterations {
		t.Fatalf("iterations: tcp %d, sim %d", tcp.Iterations, sim.Iterations)
	}
	for c := 0; c < k; c++ {
		ts, ss := tcp.Cols[c], sim.Cols[c]
		if ts.Iterations != ss.Iterations || ts.Converged != ss.Converged || ts.RelResidual != ss.RelResidual {
			t.Fatalf("col %d stats diverge: tcp (%d, %v, %g) vs sim (%d, %v, %g)",
				c, ts.Iterations, ts.Converged, ts.RelResidual, ss.Iterations, ss.Converged, ss.RelResidual)
		}
		for i := range ss.X {
			if ts.X[i] != ss.X[i] {
				t.Fatalf("col %d x[%d] diverges: tcp %v vs sim %v", c, i, ts.X[i], ss.X[i])
			}
		}
	}
	if tcp.CommBytes != sim.CommBytes || tcp.CommMessages != sim.CommMessages ||
		tcp.CollectiveCalls != sim.CollectiveCalls || tcp.CollectiveBytes != sim.CollectiveBytes {
		t.Fatalf("meters diverge: tcp (%d B, %d msgs, %d calls, %d cB) vs sim (%d B, %d msgs, %d calls, %d cB)",
			tcp.CommBytes, tcp.CommMessages, tcp.CollectiveCalls, tcp.CollectiveBytes,
			sim.CommBytes, sim.CommMessages, sim.CollectiveCalls, sim.CollectiveBytes)
	}
}

// A prepared batched solve over tcp ships the cached factors once and gets
// the same bit-identity the in-process backend does.
func TestPreparedSolveBatchTransportDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	a := GeneratePoisson2D(24, 24)
	p, err := Prepare(a, Options{Method: FSAIEComm, Filter: 0.01, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	rhs := batchRHS(a, k)
	for _, v := range []CGVariant{CGClassic, CGFused} {
		sim, err := p.SolveBatch(context.Background(), rhs, SolveOptions{CGVariant: v})
		if err != nil {
			t.Fatalf("%v sim: %v", v, err)
		}
		tcp, err := p.SolveBatch(context.Background(), rhs, SolveOptions{CGVariant: v, Transport: "tcp"})
		if err != nil {
			t.Fatalf("%v tcp: %v", v, err)
		}
		for c := 0; c < k; c++ {
			if tcp.Cols[c].Iterations != sim.Cols[c].Iterations {
				t.Fatalf("%v col %d: iterations diverge", v, c)
			}
			for i := range sim.Cols[c].X {
				if tcp.Cols[c].X[i] != sim.Cols[c].X[i] {
					t.Fatalf("%v col %d: x[%d] diverges", v, c, i)
				}
			}
		}
		if tcp.CommBytes != sim.CommBytes || tcp.CommMessages != sim.CommMessages ||
			tcp.CollectiveCalls != sim.CollectiveCalls {
			t.Fatalf("%v: meters diverge: tcp (%d, %d, %d) vs sim (%d, %d, %d)", v,
				tcp.CommBytes, tcp.CommMessages, tcp.CollectiveCalls,
				sim.CommBytes, sim.CommMessages, sim.CollectiveCalls)
		}
	}
}

// Cancellation mid-batch stops every column at the same batch iteration and
// returns the partial per-column results with an ErrCanceled-wrapped error.
func TestSolveBatchCancellation(t *testing.T) {
	a := GeneratePoisson2D(16, 16)
	rhs := batchRHS(a, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	br, err := SolveBatchContext(ctx, a, rhs, Options{Ranks: 2})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("SolveBatchContext: got %v, want ErrCanceled", err)
	}
	if br == nil || len(br.Cols) != 2 {
		t.Fatalf("SolveBatchContext: partial result %+v", br)
	}
	for c := range br.Cols {
		if br.Cols[c].Converged {
			t.Fatalf("col %d converged on a canceled solve", c)
		}
		if len(br.Cols[c].X) != a.Rows {
			t.Fatalf("col %d: partial X length %d", c, len(br.Cols[c].X))
		}
	}
	p, err := Prepare(a, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	br, err = p.SolveBatch(ctx, rhs, SolveOptions{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Prepared.SolveBatch: got %v, want ErrCanceled", err)
	}
	if br == nil || len(br.Cols) != 2 {
		t.Fatal("Prepared.SolveBatch: no partial result")
	}
}

// pollBudgetCtx is a deterministic cancellation source: Err reports Canceled
// once it has been polled more than limit times, over all ranks. Every rank
// polls once per cancellation check and the verdict is collective, so a
// limit of ranks·n lets exactly n checks pass.
type pollBudgetCtx struct {
	polls *atomic.Int64
	limit int64
}

func (c pollBudgetCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c pollBudgetCtx) Done() <-chan struct{}       { return nil }
func (c pollBudgetCtx) Value(any) any               { return nil }
func (c pollBudgetCtx) Err() error {
	if c.polls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

// A batched solve stopped at ANY of its cancellation checks — the first one,
// one inside the CG loop, or the refinement wrapper's own between two inner
// solves — returns ErrCanceled with the partial columns, at width 1 and 2,
// in FP64 and FP32. (A batched fp32 solve canceled before its first
// refinement used to come back with a nil error, Converged false and x = 0.)
func TestPreparedSolveBatchCanceledAtEveryCheck(t *testing.T) {
	const ranks = 2
	a := GeneratePoisson2D(12, 12)
	for _, prec := range []Precision{FP64, FP32} {
		p, err := Prepare(a, Options{Ranks: ranks, Precision: prec})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2} {
			rhs := batchRHS(a, k)
			so := SolveOptions{Tol: 1e-12} // deep enough that fp32 needs a second refinement
			polls := new(atomic.Int64)
			full, err := p.SolveBatch(pollBudgetCtx{polls: polls, limit: 1 << 40}, rhs, so)
			if err != nil || !full.AllConverged() {
				t.Fatalf("%v k=%d: reference solve: %v", prec, k, err)
			}
			if prec == FP32 && full.Refinements < 2 {
				t.Fatalf("k=%d: reference took %d refinements; the sweep needs a check between two", k, full.Refinements)
			}
			for checks := int64(0); checks < polls.Load()/ranks; checks++ {
				br, err := p.SolveBatch(pollBudgetCtx{polls: new(atomic.Int64), limit: ranks * checks}, rhs, so)
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("%v k=%d, %d checks allowed: err = %v, want ErrCanceled", prec, k, checks, err)
				}
				if br == nil || len(br.Cols) != k || br.AllConverged() {
					t.Fatalf("%v k=%d, %d checks allowed: partial result %+v", prec, k, checks, br)
				}
			}
		}
	}
}

// Batched entry points reject unsupported variants and malformed RHS
// blocks before any work happens.
func TestSolveBatchValidation(t *testing.T) {
	a := GeneratePoisson2D(8, 8)
	rhs := batchRHS(a, 2)
	p, err := Prepare(a, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []CGVariant{CGPipelined} {
		if _, err := SolveBatch(a, rhs, Options{CGVariant: v}); !errors.Is(err, ErrBatchVariant) {
			t.Errorf("SolveBatch variant %v: %v, want ErrBatchVariant", v, err)
		}
		if _, err := p.SolveBatch(context.Background(), rhs, SolveOptions{CGVariant: v}); !errors.Is(err, ErrBatchVariant) {
			t.Errorf("Prepared.SolveBatch variant %v: %v, want ErrBatchVariant", v, err)
		}
	}
	if _, err := SolveBatch(a, nil, Options{}); err == nil {
		t.Error("SolveBatch accepted an empty batch")
	}
	if _, err := p.SolveBatch(context.Background(), [][]float64{make([]float64, 3)}, SolveOptions{}); err == nil {
		t.Error("Prepared.SolveBatch accepted a short column")
	}
	if _, err := SolveBatch(a, [][]float64{rhs[0], make([]float64, 3)}, Options{}); err == nil {
		t.Error("SolveBatch accepted a ragged batch")
	}
	if _, err := SolveBatch(a, rhs, Options{MaxIter: -1}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("SolveBatch bad options: %v", err)
	}
}
