package fsaicomm

import (
	"context"
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
