package fsaicomm

import (
	"context"
	"errors"
	"testing"

	"fsaicomm/internal/krylov"
	"fsaicomm/internal/testsets"
)

// TestSPAIGMRESTransportDifferential is the nonsymmetric-axis version of the
// cross-backend differential: the same SPAI+GMRES solve through goroutine
// ranks and through one OS process per rank must agree bit for bit —
// solution vector, iteration count, and the metered communication structure.
func TestSPAIGMRESTransportDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	for _, name := range []string{"convdiff-sim", "nonsym-circuit-sim"} {
		t.Run(name, func(t *testing.T) {
			sp, err := testsets.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			a := sp.Generate()
			b := GenerateRHS(a, 7)
			opt := Options{Method: SPAI, Solver: SolverGMRES, SPAISteps: 2, Ranks: 4}

			sim, err := SolveDistributed(a, b, opt)
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			if !sim.Converged {
				t.Fatalf("sim did not converge in %d iterations", sim.Iterations)
			}
			opt.Transport = "tcp"
			tcp, err := SolveDistributed(a, b, opt)
			if err != nil {
				t.Fatalf("tcp: %v", err)
			}

			if tcp.Iterations != sim.Iterations || tcp.Converged != sim.Converged ||
				tcp.RelResidual != sim.RelResidual {
				t.Errorf("stats diverge: tcp (%d, %v, %g) vs sim (%d, %v, %g)",
					tcp.Iterations, tcp.Converged, tcp.RelResidual,
					sim.Iterations, sim.Converged, sim.RelResidual)
			}
			for i := range sim.X {
				if tcp.X[i] != sim.X[i] {
					t.Fatalf("x[%d] diverges: tcp %v vs sim %v", i, tcp.X[i], sim.X[i])
				}
			}
			if tcp.CommBytes != sim.CommBytes ||
				tcp.CollectiveCalls != sim.CollectiveCalls ||
				tcp.CollectiveBytes != sim.CollectiveBytes {
				t.Errorf("meter structure diverges: tcp (p2p %d, coll %d calls / %d bytes) vs sim (p2p %d, coll %d calls / %d bytes)",
					tcp.CommBytes, tcp.CollectiveCalls, tcp.CollectiveBytes,
					sim.CommBytes, sim.CollectiveCalls, sim.CollectiveBytes)
			}
			if tcp.PctNNZIncrease != sim.PctNNZIncrease {
				t.Errorf("pattern growth diverges: tcp %g vs sim %g", tcp.PctNNZIncrease, sim.PctNNZIncrease)
			}
		})
	}
}

// TestSPAIGMRESPreparedTransportDifferential ships a prepared SPAI system to
// worker processes and demands the same bit-identity a fresh solve gets,
// including a per-solve restart override.
func TestSPAIGMRESPreparedTransportDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	a := GenerateConvectionDiffusion2D(20, 20, 5)
	b := GenerateRHS(a, 5)
	p, err := Prepare(a, Options{Method: SPAI, Solver: SolverGMRES, SPAISteps: 1, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, restart := range []int{0, 15} {
		sim, err := p.Solve(context.Background(), b, SolveOptions{Restart: restart})
		if err != nil {
			t.Fatalf("restart %d sim: %v", restart, err)
		}
		if !sim.Converged {
			t.Fatalf("restart %d sim did not converge in %d iterations", restart, sim.Iterations)
		}
		tcp, err := p.Solve(context.Background(), b, SolveOptions{Restart: restart, Transport: "tcp"})
		if err != nil {
			t.Fatalf("restart %d tcp: %v", restart, err)
		}
		if tcp.Iterations != sim.Iterations || tcp.RelResidual != sim.RelResidual ||
			tcp.CommBytes != sim.CommBytes || tcp.CollectiveCalls != sim.CollectiveCalls {
			t.Errorf("restart %d diverges: tcp (%d iters, %g, p2p %d, coll %d) vs sim (%d iters, %g, p2p %d, coll %d)",
				restart, tcp.Iterations, tcp.RelResidual, tcp.CommBytes, tcp.CollectiveCalls,
				sim.Iterations, sim.RelResidual, sim.CommBytes, sim.CollectiveCalls)
		}
		for i := range sim.X {
			if tcp.X[i] != sim.X[i] {
				t.Fatalf("restart %d: x[%d] diverges: tcp %v vs sim %v", restart, i, tcp.X[i], sim.X[i])
			}
		}
	}
}

// TestSPAIGMRESConvergesWhereCGRejects pins the axis split: every CG-family
// entry point refuses a nonsymmetric matrix with an error satisfying both
// ErrNotSPD and ErrInvalidOptions, while the same matrix solves through
// SPAI+GMRES to the requested tolerance.
func TestSPAIGMRESConvergesWhereCGRejects(t *testing.T) {
	a := GenerateConvectionDiffusion2D(16, 16, 10)
	b := GenerateRHS(a, 3)

	rejects := map[string]func() error{
		"Solve": func() error {
			_, err := Solve(a, b, Options{Method: FSAI, Ranks: 1})
			return err
		},
		"SolveDistributed": func() error {
			_, err := SolveDistributed(a, b, Options{Method: FSAI, Ranks: 2})
			return err
		},
		"Prepare": func() error {
			_, err := Prepare(a, Options{Method: FSAI, Ranks: 2})
			return err
		},
		"BuildPreconditioner": func() error {
			_, err := BuildPreconditioner(a, Options{Method: FSAI})
			return err
		},
		"SolveBatch": func() error {
			_, err := SolveBatch(a, [][]float64{b}, Options{Method: FSAI, Ranks: 2})
			return err
		},
	}
	for name, call := range rejects {
		err := call()
		if err == nil {
			t.Fatalf("%s accepted a nonsymmetric matrix", name)
		}
		if !errors.Is(err, ErrNotSPD) {
			t.Errorf("%s: error does not wrap ErrNotSPD: %v", name, err)
		}
		if !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s: error does not wrap ErrInvalidOptions: %v", name, err)
		}
	}

	res, err := Solve(a, b, Options{Method: SPAI, Solver: SolverGMRES, SPAISteps: 2, Ranks: 1})
	if err != nil {
		t.Fatalf("spai+gmres: %v", err)
	}
	if !res.Converged || res.RelResidual > 1e-8 {
		t.Fatalf("spai+gmres: converged=%v rel residual %g in %d iterations",
			res.Converged, res.RelResidual, res.Iterations)
	}
	// The preconditioner must earn its keep: strictly fewer iterations than
	// unpreconditioned GMRES(30), the facade's default cycle length.
	plain, err := krylov.GMRES(a, b, make([]float64, a.Rows), krylov.Identity{}, krylov.Options{Tol: 1e-8, Restart: 30}, nil)
	if err != nil {
		t.Fatalf("unpreconditioned gmres: %v", err)
	}
	if res.Iterations >= plain.Iterations {
		t.Fatalf("spai+gmres took %d iterations, unpreconditioned GMRES(30) %d", res.Iterations, plain.Iterations)
	}
}

// TestSPAIGMRESOptionCoupling pins the Validate-level axis coupling and the
// GMRES feature restrictions.
func TestSPAIGMRESOptionCoupling(t *testing.T) {
	a := GenerateConvectionDiffusion2D(10, 10, 5)
	b := GenerateRHS(a, 1)
	bad := []Options{
		{Method: SPAI},                                          // SPAI without GMRES
		{Method: FSAI, Solver: SolverGMRES},                     // GMRES without SPAI
		{Method: SPAI, Solver: SolverGMRES, CGVariant: CGFused}, // GMRES has no fused schedule
		{Method: SPAI, Solver: SolverGMRES, Precision: FP32},    // GMRES is FP64-only
		{Method: SPAI, Solver: SolverGMRES, Restart: -1},        // negative restart
		{Method: SPAI, Solver: SolverGMRES, SPAISteps: -1},      // negative enrichment
		{Method: SPAI, Solver: SolverGMRES, SPAIEpsilon: -0.5},  // negative target
	}
	for i, opt := range bad {
		if _, err := Solve(a, b, opt); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("bad[%d] %+v: want ErrInvalidOptions, got %v", i, opt, err)
		}
	}
	// Batched solves are CG-only.
	_, err := SolveBatch(a, [][]float64{b}, Options{Method: SPAI, Solver: SolverGMRES, Ranks: 2})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("batched GMRES: want ErrInvalidOptions, got %v", err)
	}
}
