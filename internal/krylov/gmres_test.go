package krylov

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"fsaicomm/internal/core"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/fsai"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/vecops"
)

func TestParseSolver(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Solver
		ok   bool
	}{
		{"", SolverCG, true},
		{"cg", SolverCG, true},
		{"gmres", SolverGMRES, true},
		{"minres", SolverCG, false},
	} {
		got, err := ParseSolver(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseSolver(%q) = %v, %v", tc.in, got, err)
		}
	}
	if SolverGMRES.String() != "gmres" || SolverCG.String() != "cg" {
		t.Error("Solver.String mismatch")
	}
}

func TestGMRESConvDiffConverges(t *testing.T) {
	// A Péclet-skewed convection–diffusion instance — the nonsymmetric
	// workload CG cannot handle — solved to a tight tolerance and verified
	// against the true residual.
	a := matgen.ConvectionDiffusion2D(16, 16, 8)
	b := matgen.UnitRHS(a.Rows, 1)
	x := make([]float64, a.Rows)
	st, err := GMRES(a, b, x, nil, Options{Tol: 1e-10, Restart: 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("not converged")
	}
	bnorm := vecops.Norm2(b, nil)
	if res := residual(a, x, b) / bnorm; res > 1e-9 {
		t.Fatalf("true rel residual %g", res)
	}
	if math.Abs(st.RelResidual-residual(a, x, b)/bnorm) > 1e-8 {
		t.Fatalf("estimate %g vs true %g drifted", st.RelResidual, residual(a, x, b)/bnorm)
	}
}

// TestGMRESConvergesWhereCGFSAIFails is the acceptance pin of the
// nonsymmetric axis at the solver level (the facade rejects the matrix
// before CG ever runs — this drives the raw loops): CG with FSAI factors
// built from the nonsymmetric operator must break down or stall, while
// SPAI+GMRES solves the same system to tolerance.
func TestGMRESConvergesWhereCGFSAIFails(t *testing.T) {
	a := matgen.ConvectionDiffusion2D(16, 16, 10)
	b := matgen.UnitRHS(a.Rows, 2)

	// CG + FSAI on the nonsymmetric operator: the factorization may already
	// fail; if it produces factors, the solve must not reach the tolerance.
	cgFailed := false
	g, err := fsai.Build(a, fsai.LowerPattern(a))
	if err != nil {
		cgFailed = true
	} else {
		x := make([]float64, a.Rows)
		st, err := CG(a, b, x, NewSplit(g, g.Transpose()), Options{Tol: 1e-8, MaxIter: 10 * a.Rows}, nil)
		switch {
		case errors.Is(err, ErrBreakdown), errors.Is(err, ErrNoConvergence):
			cgFailed = true
		case err != nil:
			cgFailed = true
		default:
			// Converged by its own estimate: the drifted recurrence on a
			// nonsymmetric operator must still miss the true residual.
			cgFailed = !st.Converged ||
				residual(a, x, b)/vecops.Norm2(b, nil) > 1e-6
		}
	}
	if !cgFailed {
		t.Fatal("CG+FSAI solved the nonsymmetric system; the axis split is pointless")
	}

	sp, err := core.BuildOneRank(a, core.Config{Method: core.SPAI, PatternLevel: 1, SPAISteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows)
	st, err := GMRES(a, b, x, &MatPrecond{M: sp.MRows}, Options{Tol: 1e-8, Restart: 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("spai+gmres did not converge in %d iterations", st.Iterations)
	}
	if res := residual(a, x, b) / vecops.Norm2(b, nil); res > 1e-7 {
		t.Fatalf("spai+gmres true rel residual %g", res)
	}
}

func TestGMRESIdentityOneIteration(t *testing.T) {
	n := 50
	c := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 1)
	}
	a := c.ToCSR()
	b := matgen.UnitRHS(n, 2)
	x := make([]float64, n)
	st, err := GMRES(a, b, x, nil, Options{}, nil)
	if err != nil || !st.Converged || st.Iterations != 1 {
		t.Fatalf("identity solve: st=%+v err=%v", st, err)
	}
	for i := range x {
		if math.Abs(x[i]-b[i]) > 1e-12 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], b[i])
		}
	}
}

func TestGMRESZeroRHS(t *testing.T) {
	a := matgen.ConvectionDiffusion2D(5, 5, 3)
	b := make([]float64, a.Rows)
	x := make([]float64, a.Rows)
	st, err := GMRES(a, b, x, nil, Options{}, nil)
	if err != nil || !st.Converged || st.Iterations != 0 {
		t.Fatalf("zero RHS: st=%+v err=%v", st, err)
	}
}

func TestGMRESNoConvergence(t *testing.T) {
	a := matgen.ConvectionDiffusion2D(20, 20, 50)
	b := matgen.UnitRHS(a.Rows, 3)
	x := make([]float64, a.Rows)
	st, err := GMRES(a, b, x, nil, Options{Tol: 1e-300, MaxIter: 7, Restart: 3}, nil)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if st.Iterations != 7 {
		t.Fatalf("iterations %d, want exactly MaxIter", st.Iterations)
	}
}

func TestGMRESBreakdownOnSingular(t *testing.T) {
	// A has a zero row: the Krylov space dies with a nonzero residual.
	c := sparse.NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(1, 1, 0)
	a := c.ToCSR()
	b := []float64{0, 1}
	x := make([]float64, 2)
	_, err := GMRES(a, b, x, nil, Options{}, nil)
	if !errors.Is(err, ErrBreakdown) {
		t.Fatalf("err = %v, want ErrBreakdown", err)
	}
}

func TestGMRESCancellation(t *testing.T) {
	a := matgen.ConvectionDiffusion2D(10, 10, 5)
	b := matgen.UnitRHS(a.Rows, 4)
	x := make([]float64, a.Rows)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := GMRES(a, b, x, nil, Options{Ctx: ctx}, nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestGMRESRecordResiduals(t *testing.T) {
	a := matgen.ConvectionDiffusion2D(8, 8, 4)
	b := matgen.UnitRHS(a.Rows, 5)
	x := make([]float64, a.Rows)
	st, err := GMRES(a, b, x, nil, Options{RecordResiduals: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Residuals) != st.Iterations {
		t.Fatalf("%d residuals for %d iterations", len(st.Residuals), st.Iterations)
	}
	for i := 1; i < len(st.Residuals); i++ {
		if st.Residuals[i] > st.Residuals[i-1]+1e-12 {
			t.Fatalf("GMRES residual estimate increased at %d: %g -> %g", i, st.Residuals[i-1], st.Residuals[i])
		}
	}
}

// TestGMRESWorkspaceReuse checks repeated solves through one Workspace give
// bitwise-identical results to fresh allocations.
func TestGMRESWorkspaceReuse(t *testing.T) {
	a := matgen.ConvectionDiffusion2D(12, 12, 6)
	b := matgen.UnitRHS(a.Rows, 6)
	x1 := make([]float64, a.Rows)
	st1, err1 := GMRES(a, b, x1, nil, Options{Restart: 10}, nil)
	ws := &Workspace{}
	for trial := 0; trial < 3; trial++ {
		x2 := make([]float64, a.Rows)
		st2, err2 := GMRES(a, b, x2, nil, Options{Restart: 10, Work: ws}, nil)
		if (err1 == nil) != (err2 == nil) || st1.Iterations != st2.Iterations {
			t.Fatalf("trial %d: stats differ: %+v vs %+v", trial, st1, st2)
		}
		for i := range x1 {
			if x1[i] != x2[i] {
				t.Fatalf("trial %d: x[%d] differs: %g vs %g", trial, i, x1[i], x2[i])
			}
		}
	}
}

// TestGMRESMatPrecondCutsIterations drives the SPAI application path: an
// explicit approximate inverse (here the exact inverse of the diagonal part)
// through MatPrecond must cut iterations on a badly scaled instance.
func TestGMRESMatPrecondCutsIterations(t *testing.T) {
	// Badly row-scaled convection–diffusion.
	base := matgen.ConvectionDiffusion2D(14, 14, 6)
	n := base.Rows
	c := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		s := math.Pow(10, float64(i%5)-2)
		cols, vals := base.Row(i)
		for k, j := range cols {
			c.Add(i, j, s*vals[k])
		}
	}
	a := c.ToCSR()
	b := matgen.UnitRHS(n, 7)

	x0 := make([]float64, n)
	st0, err0 := GMRES(a, b, x0, nil, Options{Tol: 1e-8, Restart: 25}, nil)

	inv := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if j == i {
				inv.Add(i, i, 1/vals[k])
			}
		}
	}
	m := &MatPrecond{M: inv.ToCSR()}
	x1 := make([]float64, n)
	st1, err1 := GMRES(a, b, x1, m, Options{Tol: 1e-8, Restart: 25}, nil)
	if err1 != nil {
		t.Fatal(err1)
	}
	if err0 == nil && st1.Iterations >= st0.Iterations {
		t.Fatalf("diagonal inverse did not help: %d vs %d iterations", st1.Iterations, st0.Iterations)
	}
	bnorm := vecops.Norm2(b, nil)
	if res := residual(a, x1, b) / bnorm; res > 1e-6 {
		t.Fatalf("preconditioned true rel residual %g", res)
	}
}

// TestDistGMRESMatchesSerial is the ±1 restart-cycle property test: the
// distributed loop evaluates the same recurrence with reductions summed in
// rank order instead of index order, so iteration counts may differ by at
// most one restart cycle and both solutions must satisfy the tolerance.
func TestDistGMRESMatchesSerial(t *testing.T) {
	a := matgen.ConvectionDiffusion2D(20, 19, 10)
	n := a.Rows
	b := matgen.UnitRHS(n, 8)
	const restart = 15
	x := make([]float64, n)
	stSerial, err := GMRES(a, b, x, nil, Options{Tol: 1e-9, Restart: restart}, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, nranks := range []int{2, 4} {
		l := distmat.NewUniformLayout(n, nranks)
		got := make([]float64, n)
		stats := make([]Stats, nranks)
		_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
			lo, hi := l.Range(c.Rank())
			op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
			xl := make([]float64, hi-lo)
			st, err := DistGMRES(c, op, b[lo:hi], xl, nil, Options{Tol: 1e-9, Restart: restart}, nil)
			if err != nil {
				return err
			}
			copy(got[lo:hi], xl)
			stats[c.Rank()] = st
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r < nranks; r++ {
			if stats[r].Iterations != stats[0].Iterations ||
				stats[r].Converged != stats[0].Converged ||
				stats[r].RelResidual != stats[0].RelResidual {
				t.Fatalf("%d ranks: stats differ across ranks: %+v vs %+v", nranks, stats[r], stats[0])
			}
		}
		if d := stats[0].Iterations - stSerial.Iterations; d > restart || d < -restart {
			t.Fatalf("%d ranks: %d iterations vs serial %d — more than one restart cycle apart", nranks, stats[0].Iterations, stSerial.Iterations)
		}
		bnorm := vecops.Norm2(b, nil)
		if res := residual(a, got, b) / bnorm; res > 1e-8 {
			t.Fatalf("%d ranks: true rel residual %g", nranks, res)
		}
	}
}

// TestDistGMRESCollectiveSchedule pins the distributed loop's collective
// count per iteration: Setup carries the size reduction plus the first
// cycle-top norm (2 calls); inner iteration j (0-based within its cycle)
// performs j+1 Gram–Schmidt dots plus one norm (j+2 calls); the first
// record of every later cycle additionally carries that cycle's top norm;
// and the final record absorbs the terminating restart check. A supplied
// context adds exactly one AllreduceMax per iteration.
func TestDistGMRESCollectiveSchedule(t *testing.T) {
	a := matgen.ConvectionDiffusion2D(12, 12, 20)
	n := a.Rows
	b := matgen.UnitRHS(n, 9)
	const nranks = 4
	const restart = 4
	const maxIter = 6
	l := distmat.NewUniformLayout(n, nranks)

	run := func(ctx context.Context) []*IterTrace {
		t.Helper()
		traces := make([]*IterTrace, nranks)
		_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
			lo, hi := l.Range(c.Rank())
			op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
			x := make([]float64, hi-lo)
			// Tol below attainable accuracy forces exactly MaxIter iterations.
			st, err := DistGMRES(c, op, b[lo:hi], x, nil,
				Options{Tol: 1e-300, MaxIter: maxIter, Restart: restart, Trace: true, Ctx: ctx}, nil)
			if !errors.Is(err, ErrNoConvergence) {
				return fmt.Errorf("want forced non-convergence, got %v", err)
			}
			traces[c.Rank()] = st.Trace
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return traces
	}

	// restart=4, maxIter=6: cycle 0 runs j=0..3, cycle 1 runs j=0..1.
	// Per-record collective calls (nil ctx): j+2 within the cycle, +1 on the
	// first record of cycle 1 (its top norm), +1 on the last record (the
	// terminating restart check folded in by the tail flush).
	want := []int64{2, 3, 4, 5, 2 + 1, 3 + 1}
	for _, withCtx := range []bool{false, true} {
		var ctx context.Context
		extra := int64(0)
		if withCtx {
			ctx = context.Background()
			extra = 1 // one AllreduceMax cancellation poll per iteration
		}
		traces := run(ctx)
		for r, tr := range traces {
			if tr == nil {
				t.Fatalf("rank %d: no trace", r)
			}
			if got := tr.Setup.CollectiveCalls; got != 2 {
				t.Errorf("ctx=%v rank %d: setup collectives %d, want 2", withCtx, r, got)
			}
			if len(tr.Iters) != maxIter {
				t.Fatalf("ctx=%v rank %d: %d records, want %d", withCtx, r, len(tr.Iters), maxIter)
			}
			for i, rec := range tr.Iters {
				if got := rec.Comm.CollectiveCalls; got != want[i]+extra {
					t.Errorf("ctx=%v rank %d iter %d: %d collective calls, want %d", withCtx, r, i+1, got, want[i]+extra)
				}
			}
		}
	}
}

// TestDistGMRESZeroRHS checks the collective-free zero-RHS early exit.
func TestDistGMRESZeroRHS(t *testing.T) {
	a := matgen.ConvectionDiffusion2D(8, 8, 5)
	n := a.Rows
	const nranks = 3
	l := distmat.NewUniformLayout(n, nranks)
	_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
		b := make([]float64, hi-lo)
		x := make([]float64, hi-lo)
		st, err := DistGMRES(c, op, b, x, nil, Options{}, nil)
		if err != nil || !st.Converged || st.Iterations != 0 {
			return fmt.Errorf("zero RHS: st=%+v err=%v", st, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
