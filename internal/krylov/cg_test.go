package krylov

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"fsaicomm/internal/dense"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/vecops"
)

const testTimeout = 20 * time.Second

// directSolve solves A x = b densely for verification.
func directSolve(t *testing.T, a *sparse.CSR, b []float64) []float64 {
	t.Helper()
	n := a.Rows
	flat := make([]float64, n*n)
	d := a.Dense()
	for i := 0; i < n; i++ {
		copy(flat[i*n:(i+1)*n], d[i])
	}
	x := append([]float64(nil), b...)
	if err := dense.SolveSPD(flat, n, x); err != nil {
		t.Fatalf("direct solve: %v", err)
	}
	return x
}

func residual(a *sparse.CSR, x, b []float64) float64 {
	r := make([]float64, len(b))
	a.MulVec(x, r)
	s := 0.0
	for i := range r {
		diff := b[i] - r[i]
		s += diff * diff
	}
	return math.Sqrt(s)
}

// Jacobi is diagonal scaling, the cheapest classical baseline.
type Jacobi struct{ InvDiag []float64 }

// NewJacobi builds a Jacobi preconditioner from the matrix diagonal.
func NewJacobi(a *sparse.CSR) (*Jacobi, error) {
	d := a.Diagonal()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v == 0 {
			return nil, fmt.Errorf("krylov: Jacobi: zero diagonal at %d", i)
		}
		inv[i] = 1 / v
	}
	return &Jacobi{InvDiag: inv}, nil
}

// Apply computes z = D⁻¹ r.
func (j *Jacobi) Apply(r, z []float64, fc *vecops.FlopCounter) {
	for i := range r {
		z[i] = r[i] * j.InvDiag[i]
	}
	fc.Add(int64(len(r)))
}

// RankLocal runs a serial preconditioner as a distributed one (rankLocal).
func RankLocal(m Preconditioner) DistPreconditioner { return &rankLocal{m: m} }

func TestCGPoissonMatchesDirect(t *testing.T) {
	a := matgen.Poisson2D(10, 10)
	b := matgen.RandomRHS(a.Rows, 1, a.MaxNorm())
	x := make([]float64, a.Rows)
	st, err := CG(a, b, x, nil, Options{Tol: 1e-10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("not converged")
	}
	want := directSolve(t, a, b)
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := matgen.Poisson2D(5, 5)
	b := make([]float64, a.Rows)
	x := make([]float64, a.Rows)
	st, err := CG(a, b, x, nil, Options{}, nil)
	if err != nil || !st.Converged || st.Iterations != 0 {
		t.Fatalf("zero RHS: st=%+v err=%v", st, err)
	}
}

func TestCGNoConvergence(t *testing.T) {
	a := matgen.ThermalAniso(20, 20, 1, 10000)
	b := matgen.RandomRHS(a.Rows, 2, a.MaxNorm())
	x := make([]float64, a.Rows)
	_, err := CG(a, b, x, nil, Options{Tol: 1e-14, MaxIter: 3}, nil)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
}

func TestCGBreakdownOnIndefinite(t *testing.T) {
	c := sparse.NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(1, 1, -1)
	a := c.ToCSR()
	b := []float64{1, 1}
	x := make([]float64, 2)
	_, err := CG(a, b, x, nil, Options{}, nil)
	if err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}

func TestJacobiPreconditionerReducesIterations(t *testing.T) {
	// A badly scaled SPD diagonal-dominant matrix: Jacobi fixes scaling.
	// A = D^{1/2} T D^{1/2} with T = tridiag(-1, 4, -1): SPD by congruence,
	// condition number inflated by the diagonal scaling D.
	n := 200
	rng := rand.New(rand.NewSource(4))
	s := make([]float64, n) // sqrt of scale
	for i := range s {
		s[i] = math.Pow(10, (float64(rng.Intn(6))-3)/2)
	}
	c := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 4*s[i]*s[i])
		if i > 0 {
			c.AddSym(i, i-1, -s[i]*s[i-1])
		}
	}
	a := c.ToCSR()
	b := matgen.RandomRHS(n, 3, a.MaxNorm())

	x1 := make([]float64, n)
	st1, err := CG(a, b, x1, nil, Options{MaxIter: 100000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, n)
	st2, err := CG(a, b, x2, j, Options{MaxIter: 100000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Iterations >= st1.Iterations {
		t.Fatalf("Jacobi %d iters not below plain %d", st2.Iterations, st1.Iterations)
	}
}

func TestNewJacobiZeroDiagonal(t *testing.T) {
	c := sparse.NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(1, 0, 1) // row 1 has no diagonal
	if _, err := NewJacobi(c.ToCSR()); err == nil {
		t.Fatal("zero diagonal accepted")
	}
}

func TestSplitPreconditionerIdentityFactors(t *testing.T) {
	// G = I must reproduce plain CG exactly.
	a := matgen.Poisson2D(8, 8)
	n := a.Rows
	id := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		id.Add(i, i, 1)
	}
	g := id.ToCSR()
	b := matgen.RandomRHS(n, 5, a.MaxNorm())
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	st1, err1 := CG(a, b, x1, nil, Options{}, nil)
	st2, err2 := CG(a, b, x2, NewSplit(g, g.Transpose()), Options{}, nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if st1.Iterations != st2.Iterations {
		t.Fatalf("identity split changed iterations: %d vs %d", st1.Iterations, st2.Iterations)
	}
}

func TestCGFlopAccounting(t *testing.T) {
	a := matgen.Poisson2D(6, 6)
	b := matgen.RandomRHS(a.Rows, 7, a.MaxNorm())
	x := make([]float64, a.Rows)
	var fc vecops.FlopCounter
	st, err := CG(a, b, x, nil, Options{}, &fc)
	if err != nil {
		t.Fatal(err)
	}
	// At minimum: iterations × (2·nnz SpMV + several vector ops).
	min := int64(st.Iterations) * 2 * int64(a.NNZ())
	if st.Flops < min {
		t.Fatalf("flops %d below SpMV-only floor %d", st.Flops, min)
	}
}

func TestDistCGMatchesSerial(t *testing.T) {
	a := matgen.Poisson2D(12, 12)
	n := a.Rows
	b := matgen.RandomRHS(n, 9, a.MaxNorm())
	xs := make([]float64, n)
	stSerial, err := CG(a, b, xs, nil, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, nranks := range []int{1, 2, 4, 7} {
		l := distmat.NewUniformLayout(n, nranks)
		xd := make([]float64, n)
		iters := make([]int, nranks)
		_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
			lo, hi := l.Range(c.Rank())
			op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
			xl := make([]float64, hi-lo)
			st, err := DistCG(c, op, b[lo:hi], xl, nil, Options{}, nil)
			if err != nil {
				return err
			}
			iters[c.Rank()] = st.Iterations
			copy(xd[lo:hi], xl)
			return nil
		})
		if err != nil {
			t.Fatalf("nranks=%d: %v", nranks, err)
		}
		for r := 1; r < nranks; r++ {
			if iters[r] != iters[0] {
				t.Fatalf("nranks=%d: rank %d iters %d != %d", nranks, r, iters[r], iters[0])
			}
		}
		// Same iteration count as serial (identical arithmetic order for
		// dot products is not guaranteed, allow ±2).
		if diff := iters[0] - stSerial.Iterations; diff < -2 || diff > 2 {
			t.Fatalf("nranks=%d: %d iters vs serial %d", nranks, iters[0], stSerial.Iterations)
		}
		if res := residual(a, xd, b); res > 1e-6*(1+vecops.Norm2(b, nil)) {
			t.Fatalf("nranks=%d: residual %g too large", nranks, res)
		}
	}
}

func TestDistCGWithJacobiEquivalent(t *testing.T) {
	// Distributed Jacobi (pure local scaling) via DistPreconditioner adapter.
	a := matgen.CFDDiffusion(10, 10, 100, 3)
	n := a.Rows
	b := matgen.RandomRHS(n, 11, a.MaxNorm())
	j, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, n)
	stS, err := CG(a, b, xs, j, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nranks := 3
	l := distmat.NewUniformLayout(n, nranks)
	itersDist := -1
	_, err = simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
		local := &distJacobi{inv: j.InvDiag[lo:hi]}
		xl := make([]float64, hi-lo)
		st, err := DistCG(c, op, b[lo:hi], xl, local, Options{}, nil)
		if c.Rank() == 0 {
			itersDist = st.Iterations
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if diff := itersDist - stS.Iterations; diff < -2 || diff > 2 {
		t.Fatalf("distributed Jacobi iters %d vs serial %d", itersDist, stS.Iterations)
	}
}

// distJacobi is diagonal scaling over a rank's local block, at any width.
type distJacobi = distJacobiBatch

// Property: CG solves random small SPD systems to the requested tolerance.
func TestQuickCGSolvesSPD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		c := sparse.NewCOO(n, n)
		for i := 0; i < n; i++ {
			c.Add(i, i, float64(n))
		}
		for k := 0; k < 2*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				c.AddSym(i, j, rng.NormFloat64()*0.3)
			}
		}
		a := c.ToCSR()
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		st, err := CG(a, b, x, nil, Options{Tol: 1e-9}, nil)
		if err != nil || !st.Converged {
			return false
		}
		bn := vecops.Norm2(b, nil)
		return residual(a, x, b) <= 1e-7*(1+bn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDistSplitIdentityFactors(t *testing.T) {
	// Distributed split preconditioner with G = I must match plain DistCG.
	a := matgen.Poisson2D(10, 10)
	n := a.Rows
	id := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		id.Add(i, i, 1)
	}
	g := id.ToCSR()
	b := matgen.RandomRHS(n, 15, a.MaxNorm())
	nranks := 3
	l := distmat.NewUniformLayout(n, nranks)
	var plainIters, splitIters int
	_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
		x := make([]float64, hi-lo)
		st, err := DistCG(c, op, b[lo:hi], x, nil, Options{}, nil)
		if err != nil {
			return err
		}
		gOp := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(g, lo, hi))
		gtOp := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(g, lo, hi))
		x2 := make([]float64, hi-lo)
		st2, err := DistCG(c, op, b[lo:hi], x2, NewDistSplit(gOp, gtOp), Options{}, nil)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			plainIters, splitIters = st.Iterations, st2.Iterations
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if plainIters != splitIters {
		t.Fatalf("identity split changed iterations: %d vs %d", plainIters, splitIters)
	}
}

func TestDistCGLengthValidation(t *testing.T) {
	a := matgen.Poisson2D(4, 4)
	l := distmat.NewUniformLayout(a.Rows, 2)
	_, err := simmpi.Run(2, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
		x := make([]float64, hi-lo)
		// Short rhs must panic inside DistCG; simmpi recovers rank panics
		// into errors, which Run propagates.
		DistCG(c, op, make([]float64, 1), x, nil, Options{}, nil)
		return fmt.Errorf("no panic for short rhs")
	})
	if err == nil || !strings.Contains(err.Error(), "local length") {
		t.Fatalf("length mismatch not detected: %v", err)
	}
}

func TestRecordResiduals(t *testing.T) {
	a := matgen.Poisson2D(10, 10)
	b := matgen.RandomRHS(a.Rows, 17, a.MaxNorm())
	x := make([]float64, a.Rows)
	st, err := CG(a, b, x, nil, Options{RecordResiduals: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Residuals) != st.Iterations {
		t.Fatalf("recorded %d residuals for %d iterations", len(st.Residuals), st.Iterations)
	}
	if last := st.Residuals[len(st.Residuals)-1]; last != st.RelResidual {
		t.Fatalf("last residual %v != final %v", last, st.RelResidual)
	}
	// CG residuals are not monotone, but the trend must be downward: the
	// final residual is far below the first.
	if st.Residuals[0] < st.RelResidual*10 {
		t.Fatalf("no residual reduction recorded: %v -> %v", st.Residuals[0], st.RelResidual)
	}
}
