package fsaicomm

import (
	"context"
	"math"
	"testing"

	"fsaicomm/internal/testsets"
)

// trueRelResidual recomputes ‖b − A·x‖/‖b‖ in FP64 from scratch — the
// accuracy check no solver-internal recurrence can fake.
func trueRelResidual(a *Matrix, b, x []float64) float64 {
	r := make([]float64, a.Rows)
	a.MulVec(x, r)
	var rr, bb float64
	for i := range r {
		d := b[i] - r[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr) / math.Sqrt(bb)
}

// TestMixedPrecisionReachesFP64Tolerance is the accuracy property of the
// mixed-precision claim: on every catalog fixture and CG variant, float32
// factors plus FP64 iterative refinement must reach the same tolerance a
// pure FP64 solve does — verified against an independently recomputed FP64
// residual, not the solver's own recurrence — at a bounded iteration
// overhead and with the refinement loop visibly engaged.
func TestMixedPrecisionReachesFP64Tolerance(t *testing.T) {
	for _, name := range []string{"Dubcova2-sim", "gyro-sim"} {
		t.Run(name, func(t *testing.T) {
			sp, err := testsets.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			a := sp.Generate()
			b := GenerateRHS(a, 11)
			prepared := map[Precision]*Prepared{}
			for _, prec := range []Precision{FP64, FP32} {
				p, err := Prepare(a, Options{Method: FSAI, Ranks: 4, Precision: prec})
				if err != nil {
					t.Fatalf("prepare %v: %v", prec, err)
				}
				prepared[prec] = p
			}
			const tol = 1e-8 // the facade default
			for _, v := range []CGVariant{CGClassic, CGFused, CGPipelined} {
				f64, err := prepared[FP64].Solve(context.Background(), b, SolveOptions{CGVariant: v})
				if err != nil {
					t.Fatalf("%v fp64: %v", v, err)
				}
				f32, err := prepared[FP32].Solve(context.Background(), b, SolveOptions{CGVariant: v})
				if err != nil {
					t.Fatalf("%v fp32: %v", v, err)
				}
				if !f64.Converged || !f32.Converged {
					t.Fatalf("%v: converged fp64=%v fp32=%v", v, f64.Converged, f32.Converged)
				}
				if f32.Refinements < 1 {
					t.Errorf("%v: fp32 solve reports %d refinements, want >= 1", v, f32.Refinements)
				}
				if f64.Refinements != 0 {
					t.Errorf("%v: fp64 solve reports %d refinements, want 0", v, f64.Refinements)
				}
				if rel := trueRelResidual(a, b, f32.X); rel > tol {
					t.Errorf("%v: fp32 true residual %g exceeds tolerance %g", v, rel, tol)
				}
				if f32.Iterations > 2*f64.Iterations {
					t.Errorf("%v: fp32 took %d inner iterations vs %d FP64 — refinement is not amortizing",
						v, f32.Iterations, f64.Iterations)
				}
			}
		})
	}
}

// TestMixedPrecisionSerial covers the serial refined path (Solve with
// Ranks 1) and the reusable-preconditioner path: the refinement loop on one
// rank over the narrowed Split.
func TestMixedPrecisionSerial(t *testing.T) {
	a := GeneratePoisson2D(32, 32)
	b := GenerateRHS(a, 7)
	res, err := Solve(a, b, Options{Method: FSAI, Ranks: 1, Precision: FP32})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Refinements < 1 {
		t.Fatalf("serial fp32: converged=%v refinements=%d", res.Converged, res.Refinements)
	}
	if rel := trueRelResidual(a, b, res.X); rel > 1e-8 {
		t.Fatalf("serial fp32 true residual %g", rel)
	}

	m, err := BuildPreconditioner(a, Options{Method: FSAI, Precision: FP32})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := m.SolveWith(b, Options{Method: FSAI, Precision: FP32})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Converged || res2.Refinements < 1 {
		t.Fatalf("preconditioner fp32: converged=%v refinements=%d", res2.Converged, res2.Refinements)
	}
	if rel := trueRelResidual(a, b, res2.X); rel > 1e-8 {
		t.Fatalf("preconditioner fp32 true residual %g", rel)
	}
}

// TestMixedPrecisionBatch checks the batched refined path: every column of
// a multi-RHS fp32 solve reaches the FP64 tolerance under refinement.
func TestMixedPrecisionBatch(t *testing.T) {
	a := GeneratePoisson2D(24, 24)
	rhs := [][]float64{GenerateRHS(a, 1), GenerateRHS(a, 2), GenerateRHS(a, 3)}
	res, err := SolveBatch(a, rhs, Options{Method: FSAI, Ranks: 4, Precision: FP32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Refinements < 1 {
		t.Fatalf("batch fp32 reports %d refinements", res.Refinements)
	}
	for col, cr := range res.Cols {
		if !cr.Converged || cr.Broken {
			t.Fatalf("column %d: converged=%v broken=%v", col, cr.Converged, cr.Broken)
		}
		if rel := trueRelResidual(a, rhs[col], cr.X); rel > 1e-8 {
			t.Errorf("column %d true residual %g", col, rel)
		}
	}
}

// TestMixedPrecisionTransportDifferential demands the goroutine and
// process backends run the refined solve bit-identically: same solution,
// same refinement count, same metered traffic.
func TestMixedPrecisionTransportDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	a := GeneratePoisson2D(24, 24)
	b := GenerateRHS(a, 5)
	p, err := Prepare(a, Options{Method: FSAI, Ranks: 4, Precision: FP32})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []CGVariant{CGClassic, CGFused, CGPipelined} {
		sim, err := p.Solve(context.Background(), b, SolveOptions{CGVariant: v})
		if err != nil {
			t.Fatalf("%v sim: %v", v, err)
		}
		tcp, err := p.Solve(context.Background(), b, SolveOptions{CGVariant: v, Transport: "tcp"})
		if err != nil {
			t.Fatalf("%v tcp: %v", v, err)
		}
		if tcp.Iterations != sim.Iterations || tcp.Refinements != sim.Refinements ||
			tcp.RelResidual != sim.RelResidual {
			t.Fatalf("%v: stats diverge: tcp (%d, %d, %g) vs sim (%d, %d, %g)",
				v, tcp.Iterations, tcp.Refinements, tcp.RelResidual,
				sim.Iterations, sim.Refinements, sim.RelResidual)
		}
		for i := range sim.X {
			if tcp.X[i] != sim.X[i] {
				t.Fatalf("%v: x[%d] diverges: tcp %v vs sim %v", v, i, tcp.X[i], sim.X[i])
			}
		}
		if tcp.CommBytes != sim.CommBytes || tcp.CollectiveCalls != sim.CollectiveCalls {
			t.Fatalf("%v: meters diverge: tcp (%d, %d) vs sim (%d, %d)",
				v, tcp.CommBytes, tcp.CollectiveCalls, sim.CommBytes, sim.CollectiveCalls)
		}
	}
}

// TestMixedPrecisionHalvesHaloBytes pins the communication claim on the
// wire, on both backends: on a solve long enough to amortize the
// refinement loop's fixed FP64 exchanges, the metered point-to-point bytes
// of the fp32 solve must stay at or below 0.55x of the FP64 baseline's for
// the classic and fused CG loops (the 0.05 above the theoretical 0.5 pays
// for the FP64 residual exchange per refinement and the few extra inner
// iterations the narrowed operator costs).
func TestMixedPrecisionHalvesHaloBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-row solves and worker processes")
	}
	a := testsets.BenchSpec().Generate()
	b := GenerateRHS(a, 11)
	prepared := map[Precision]*Prepared{}
	for _, prec := range []Precision{FP64, FP32} {
		p, err := Prepare(a, Options{Method: FSAI, Ranks: 8, Precision: prec})
		if err != nil {
			t.Fatalf("prepare %v: %v", prec, err)
		}
		prepared[prec] = p
	}
	for _, v := range []CGVariant{CGClassic, CGFused} {
		for _, transport := range []string{"sim", "tcp"} {
			f64, err := prepared[FP64].Solve(context.Background(), b, SolveOptions{CGVariant: v, Transport: transport})
			if err != nil {
				t.Fatalf("%s %v fp64: %v", transport, v, err)
			}
			f32, err := prepared[FP32].Solve(context.Background(), b, SolveOptions{CGVariant: v, Transport: transport})
			if err != nil {
				t.Fatalf("%s %v fp32: %v", transport, v, err)
			}
			if !f64.Converged || !f32.Converged {
				t.Fatalf("%s %v: converged fp64=%v fp32=%v", transport, v, f64.Converged, f32.Converged)
			}
			if limit := int64(0.55 * float64(f64.CommBytes)); f32.CommBytes > limit {
				t.Errorf("%s %v: fp32 halo bytes %d exceed 0.55x of fp64's %d (limit %d)",
					transport, v, f32.CommBytes, f64.CommBytes, limit)
			}
		}
	}
}

// An FP32 system is charged the float32 values its solves read from Prepare
// (and Refactor) on: its SizeBytes is the FP64 system's plus four bytes per
// stored entry of A, G and Gᵀ on every rank, and a solve does not move it.
func TestFP32SizeBytesChargesNarrowedValues(t *testing.T) {
	a := GeneratePoisson3D(14, 14, 14)
	b := GenerateRHS(a, 3)
	opt := Options{Method: FSAIEComm, Ranks: 2, Filter: 0.01}
	p64, err := Prepare(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer p64.Close()
	opt.Precision = FP32
	p32, err := Prepare(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer p32.Close()
	refactored, err := p32.Refactor(a)
	if err != nil {
		t.Fatal(err)
	}
	defer refactored.Close()
	for _, p := range []*Prepared{p32, refactored} {
		var nnz int64
		for _, r := range p.parts {
			nnz += int64(r.A.LZ.M.NNZ() + r.G.LZ.M.NNZ() + r.GT.LZ.M.NNZ())
		}
		want := p64.SizeBytes() + 4*nnz
		if got := p.SizeBytes(); got != want {
			t.Fatalf("FP32 SizeBytes %d before a solve, want FP64's %d + 4·%d = %d", got, p64.SizeBytes(), nnz, want)
		}
		if _, err := p.Solve(context.Background(), b, SolveOptions{}); err != nil {
			t.Fatal(err)
		}
		if got := p.SizeBytes(); got != want {
			t.Fatalf("FP32 SizeBytes %d after a solve, want %d", got, want)
		}
	}
}
