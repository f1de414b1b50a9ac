package krylov

import (
	"errors"
	"math"
	"testing"

	"fsaicomm/internal/matgen"
	"fsaicomm/internal/sparse"
)

// eye builds the n×n identity — the weakest split preconditioner, which
// still exercises the narrowing of a Split.
func eye(n int) *sparse.CSR {
	c := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 1)
	}
	return c.ToCSR()
}

func TestInnerTol(t *testing.T) {
	// First solve (relres 1) aims a safety factor under the target.
	if got := innerTol(1e-8, 1); got != refineSafety*1e-8 {
		t.Fatalf("innerTol(1e-8, 1) = %g", got)
	}
	// A correction solve only closes the remaining gap.
	if got := innerTol(1e-8, 1e-6); got != refineSafety*1e-2 {
		t.Fatalf("innerTol(1e-8, 1e-6) = %g", got)
	}
	// A near-converged outer residual never asks for a looser-than-safety
	// reduction: the cap keeps every refinement at least halving.
	if got := innerTol(1e-8, 2e-9); got != refineSafety {
		t.Fatalf("innerTol(1e-8, 2e-9) = %g, want the %g cap", got, refineSafety)
	}
}

// TestSolveRefinedReachesFP64Tolerance: the serial mixed-precision solve
// must reach the same tolerance plain FP64 CG does, verified against an
// independently recomputed FP64 residual, with the refinement loop engaged
// and traced.
func TestSolveRefinedReachesFP64Tolerance(t *testing.T) {
	a := matgen.Poisson2D(20, 20)
	b := matgen.RandomRHS(a.Rows, 3, a.MaxNorm())
	g := eye(a.Rows)
	x := make([]float64, a.Rows)
	st, err := SolveRefined(a, b, x, NewSplit(g, g.Transpose()), Options{Tol: 1e-10, Trace: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Refinements < 1 {
		t.Fatalf("converged=%v refinements=%d", st.Converged, st.Refinements)
	}
	r := make([]float64, a.Rows)
	a.MulVec(x, r)
	var rr, bb float64
	for i := range r {
		d := b[i] - r[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	if rel := math.Sqrt(rr / bb); rel > 1e-10 {
		t.Fatalf("true residual %g exceeds tolerance", rel)
	}
	if st.Trace == nil || len(st.Trace.Refines) != st.Refinements {
		t.Fatalf("trace records %v refinement steps, stats say %d", st.Trace, st.Refinements)
	}
}

func TestSolveRefinedZeroRHS(t *testing.T) {
	a := matgen.Poisson2D(5, 5)
	g := eye(a.Rows)
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = 7 // must be overwritten with the zero solution
	}
	st, err := SolveRefined(a, make([]float64, a.Rows), x, NewSplit(g, g.Transpose()), Options{}, nil)
	if err != nil || !st.Converged || st.Iterations != 0 {
		t.Fatalf("zero RHS: st=%+v err=%v", st, err)
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("x[%d] = %v", i, v)
		}
	}
}

// TestSolveRefinedBreakdownOnIndefinite: when the inner solve breaks down
// without the FP64 recomputation showing progress, the refined solve must
// surface ErrBreakdown instead of looping on a diverging correction.
func TestSolveRefinedBreakdownOnIndefinite(t *testing.T) {
	c := sparse.NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(1, 1, -1)
	a := c.ToCSR()
	x := make([]float64, 2)
	_, err := SolveRefined(a, []float64{1, 1}, x, nil, Options{}, nil)
	if !errors.Is(err, ErrBreakdown) {
		t.Fatalf("err = %v, want ErrBreakdown", err)
	}
}

// TestSolveRefinedNaNRHS: a non-finite right-hand side must come back as a
// breakdown, never a hang or a silent "converged".
func TestSolveRefinedNaNRHS(t *testing.T) {
	a := matgen.Poisson2D(4, 4)
	b := make([]float64, a.Rows)
	b[3] = math.NaN()
	x := make([]float64, a.Rows)
	st, err := SolveRefined(a, b, x, nil, Options{}, nil)
	if !errors.Is(err, ErrBreakdown) || st.Converged {
		t.Fatalf("NaN rhs: st=%+v err=%v", st, err)
	}
}

// TestSolveRefinedBudgetExhaustion: the outer loop shares MaxIter with the
// inner solves as one total budget and reports ErrNoConvergence when it
// runs out.
func TestSolveRefinedBudgetExhaustion(t *testing.T) {
	a := matgen.ThermalAniso(20, 20, 1, 10000)
	b := matgen.RandomRHS(a.Rows, 2, a.MaxNorm())
	x := make([]float64, a.Rows)
	st, err := SolveRefined(a, b, x, nil, Options{Tol: 1e-14, MaxIter: 5}, nil)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if st.Iterations > 5 {
		t.Fatalf("budget 5 overrun: %d inner iterations", st.Iterations)
	}
}
