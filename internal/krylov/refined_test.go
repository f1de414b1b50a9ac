package krylov

import (
	"errors"
	"math"
	"testing"

	"fsaicomm/internal/core"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/spai"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/vecops"
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

// The refinement wrapper is not a CG loop: handed restarted GMRES over the
// float32 views of a nonsymmetric A and of its SPAI inverse as the inner
// solve, it delivers the FP64 answer — mixed-precision SPAI-GMRES with no
// loop of its own — on the one-rank world and on two ranks.
func TestRefineComposesWithGMRES(t *testing.T) {
	a := matgen.ConvectionDiffusion2D(40, 40, 20)
	n := a.Rows
	b := matgen.UnitRHS(n, 4)
	sopt := spai.Options{Steps: 2}
	opt := Options{Tol: 1e-8}
	f32 := func(op *distmat.Op) *distmat.Op {
		v := distmat.NewOpFromParts(op.LZ, op.Plan.Clone())
		v.SetF32(true)
		return v
	}
	solve := func(c *simmpi.Comm, aOp, mOp *distmat.Op, bl, xl []float64) (BatchStats, error) {
		a32, m32 := f32(aOp), NewDistMatPrecond(f32(mOp))
		return refine(c, aOp, bl, xl, 1, opt, nil, func(r, d []float64, in Options) (BatchStats, error) {
			return oneColumn(DistGMRES(c, a32, r, d, m32, in, nil))
		})
	}
	check := func(world string, x []float64, bs BatchStats, err error) {
		t.Helper()
		if err != nil || !bs.Cols[0].Converged || bs.Refinements < 1 {
			t.Fatalf("%s: %+v, %v", world, bs, err)
		}
		if res := residual(a, x, b) / vecops.Norm2(b, nil); res > 1e-8 {
			t.Fatalf("%s: true FP64 rel residual %g after %d refinements / %d inner iterations",
				world, res, bs.Refinements, bs.Iterations)
		}
		t.Logf("%s: %d refinements, %d inner GMRES iterations, rel residual %.3g", world, bs.Refinements, bs.Iterations, bs.Cols[0].RelResidual)
	}

	one, err := core.BuildOneRank(a, core.Config{Method: core.SPAI, SPAISteps: sopt.Steps})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	bs, err := solve(nil, distmat.LocalOp(a), distmat.LocalOp(one.MRows), b, x)
	check("one rank", x, bs, err)

	const ranks = 2
	l := distmat.NewUniformLayout(n, ranks)
	x = make([]float64, n)
	_, runErr := simmpi.Run(ranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		aRows := distmat.ExtractLocalRows(a, lo, hi)
		mRows, err := spai.BuildDist(c, l, lo, hi, aRows, sopt)
		if err != nil {
			return err
		}
		s, err := solve(c, distmat.NewOp(c, l, lo, hi, aRows), distmat.NewOp(c, l, lo, hi, mRows), b[lo:hi], x[lo:hi])
		if c.Rank() == 0 {
			bs = s
		}
		return err
	})
	check("two ranks", x, bs, runErr)
}
