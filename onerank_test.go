package fsaicomm

import (
	"context"
	"errors"
	"math"
	"testing"

	"fsaicomm/internal/matgen"
)

// TestOneProcessIsOneRank: a one-process solve is the one-rank distributed
// solve. Solve, BuildPreconditioner → SolveWith, SolveDistributed on one rank
// and Prepare on one rank → Solve give the same iterations, the same pattern
// growth and the same bits of x, for each preconditioner family and set-up
// option the one-process entry points take.
func TestOneProcessIsOneRank(t *testing.T) {
	spd := matgen.Poisson3D(16, 16, 16)
	nonsym := matgen.ConvectionDiffusion2D(24, 24, 20)
	cases := []struct {
		name string
		a    *Matrix
		opt  Options
	}{
		{"fsai", spd, Options{Method: FSAI}},
		{"fsaie/f0.05", spd, Options{Method: FSAIE, Filter: 0.05}},
		{"fsaie-comm/f0.05", spd, Options{Method: FSAIEComm, Filter: 0.05}},
		{"fsaie-comm/level2/tau0.01", spd, Options{Method: FSAIEComm, PatternLevel: 2, Threshold: 0.01}},
		{"fsaie-comm/fp32", spd, Options{Method: FSAIEComm, Precision: FP32}},
		{"spai/gmres", nonsym, Options{Method: SPAI, Solver: SolverGMRES, SPAISteps: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.Ranks = 1
			b := GenerateRHS(tc.a, 7)
			ref, err := Solve(tc.a, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Converged {
				t.Fatalf("Solve did not converge in %d iterations", ref.Iterations)
			}
			same := func(entry string, got *Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", entry, err)
				}
				if got.Iterations != ref.Iterations || got.PctNNZIncrease != ref.PctNNZIncrease {
					t.Errorf("%s: %d iterations, %.9f %% NNZ; Solve has %d, %.9f %%",
						entry, got.Iterations, got.PctNNZIncrease, ref.Iterations, ref.PctNNZIncrease)
				}
				for i := range ref.X {
					if math.Float64bits(got.X[i]) != math.Float64bits(ref.X[i]) {
						t.Fatalf("%s: x[%d] = %v, Solve has %v", entry, i, got.X[i], ref.X[i])
					}
				}
			}
			m, err := BuildPreconditioner(tc.a, opt)
			if err != nil {
				t.Fatal(err)
			}
			with, err := m.SolveWith(b, opt)
			same("BuildPreconditioner → SolveWith", with, err)
			dist, err := SolveDistributed(tc.a, b, opt)
			same("SolveDistributed", dist, err)
			p, err := Prepare(tc.a, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			prep, err := p.Solve(context.Background(), b, SolveOptions{})
			same("Prepare → Solve", prep, err)
		})
	}
}

// TestNonFiniteRHSRejectedEverywhere: a NaN or +Inf in a right-hand side, and
// a NaN or negative Tol, a negative MaxIter or Restart in the per-solve
// options, are input errors at every solve entry point, returned before the
// Krylov loop runs: ErrInvalidOptions and no result, never a breakdown at
// iteration 0 or a silent default.
func TestNonFiniteRHSRejectedEverywhere(t *testing.T) {
	a := GeneratePoisson2D(8, 8)
	good := GenerateRHS(a, 1)
	setup := Options{Ranks: 2}
	m, err := BuildPreconditioner(a, setup)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(a, setup)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	withRHS := func(v float64) []float64 {
		b := append([]float64(nil), good...)
		b[3] = v
		return b
	}
	for _, bad := range []struct {
		name string
		b    []float64
		opt  Options
	}{
		{"rhs[3] = NaN", withRHS(math.NaN()), setup},
		{"rhs[3] = +Inf", withRHS(math.Inf(1)), setup},
		{"Tol NaN", good, Options{Ranks: 2, Tol: math.NaN(), MaxIter: 50}},
		{"Tol -1", good, Options{Ranks: 2, Tol: -1}},
		{"MaxIter -5", good, Options{Ranks: 2, MaxIter: -5}},
		{"Restart -3", good, Options{Ranks: 2, Restart: -3}},
	} {
		b, opt, so := bad.b, bad.opt, perSolve(bad.opt)
		for _, entry := range []struct {
			name string
			run  func() (any, error)
		}{
			{"Solve", func() (any, error) { return Solve(a, b, opt) }},
			{"SolveDistributed", func() (any, error) { return SolveDistributed(a, b, opt) }},
			{"SolveBatch", func() (any, error) { return SolveBatch(a, [][]float64{good, b}, opt) }},
			{"Preconditioner.SolveWith", func() (any, error) { return m.SolveWith(b, opt) }},
			{"Prepared.Solve", func() (any, error) { return p.Solve(ctx, b, so) }},
			{"Prepared.SolveBatch", func() (any, error) { return p.SolveBatch(ctx, [][]float64{good, b}, so) }},
		} {
			res, err := entry.run()
			if !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("%s with %s: error %v, want one wrapping ErrInvalidOptions", entry.name, bad.name, err)
			}
			switch r := res.(type) {
			case *Result:
				if r != nil {
					t.Errorf("%s with %s: a result came back with the error", entry.name, bad.name)
				}
			case *BatchResult:
				if r != nil {
					t.Errorf("%s with %s: a result came back with the error", entry.name, bad.name)
				}
			}
		}
	}
}
