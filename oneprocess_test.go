package fsaicomm

import (
	"context"
	"math"
	"sync"
	"testing"

	"fsaicomm/internal/matgen"
	"fsaicomm/internal/mprun"
)

// sameSolve fails t unless got has ref's iterations, modeled solve time and
// bits of x.
func sameSolve(t *testing.T, entry string, got, ref *Result) {
	t.Helper()
	if got.Iterations != ref.Iterations || got.ModeledSolveTime != ref.ModeledSolveTime {
		t.Errorf("%s: %d iterations, modeled %g s; want %d, %g s",
			entry, got.Iterations, got.ModeledSolveTime, ref.Iterations, ref.ModeledSolveTime)
	}
	for i := range ref.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(ref.X[i]) {
			t.Fatalf("%s: x[%d] = %v, want %v", entry, i, got.X[i], ref.X[i])
		}
	}
}

// TestOneProcessSolvesEveryVariantOnOneRank: the one-process entry points
// answer every per-solve field as a one-rank Prepared does, CGVariant
// included. Under each variant, Solve and BuildPreconditioner → SolveWith
// give SolveDistributed's and Prepare → Solve's x bits, iterations and
// modeled solve time at Ranks 1, and a one-process solve asked for the
// "tcp" transport starts no worker process.
func TestOneProcessSolvesEveryVariantOnOneRank(t *testing.T) {
	a := matgen.Poisson3D(16, 16, 16)
	b := GenerateRHS(a, 5)
	for _, v := range []CGVariant{CGClassic, CGClassicOverlap, CGFused, CGPipelined} {
		t.Run(v.String(), func(t *testing.T) {
			opt := Options{Method: FSAIEComm, Ranks: 1, CGVariant: v}
			ref, err := SolveDistributed(a, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Converged || ref.ModeledSolveTime <= 0 {
				t.Fatalf("SolveDistributed: converged %v, modeled %g s", ref.Converged, ref.ModeledSolveTime)
			}
			p, err := Prepare(a, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			prep, err := p.Solve(context.Background(), b, opt.SolveOptions())
			if err != nil {
				t.Fatal(err)
			}
			sameSolve(t, "Prepare → Solve", prep, ref)
			one, err := Solve(a, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameSolve(t, "Solve", one, ref)
			m, err := BuildPreconditioner(a, opt)
			if err != nil {
				t.Fatal(err)
			}
			with, err := m.SolveWith(b, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameSolve(t, "BuildPreconditioner → SolveWith", with, ref)
		})
	}
	spawns := mprun.ReadCounters().WorkerSpawns
	tcp, err := Solve(a, b, Options{Method: FSAIEComm, Ranks: 1, Transport: "tcp"})
	if err != nil || !tcp.Converged {
		t.Fatalf("Solve over tcp: %v", err)
	}
	if got := mprun.ReadCounters().WorkerSpawns; got != spawns {
		t.Errorf("Solve over tcp started %d worker processes, want none", got-spawns)
	}
}

// TestSolveWithConcurrent: SolveWith is safe for concurrent use. Four
// goroutines solving on one Preconditioner each get the sequential answer
// bit for bit.
func TestSolveWithConcurrent(t *testing.T) {
	a := matgen.Poisson3D(16, 16, 16)
	m, err := BuildPreconditioner(a, Options{Method: FSAIEComm})
	if err != nil {
		t.Fatal(err)
	}
	const solvers = 4
	rhs, refs := make([][]float64, solvers), make([]*Result, solvers)
	for g := range rhs {
		rhs[g] = GenerateRHS(a, int64(g+1))
		if refs[g], err = m.SolveWith(rhs[g], Options{}); err != nil {
			t.Fatal(err)
		}
	}
	got, errs := make([]*Result, solvers), make([]error, solvers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = m.SolveWith(rhs[g], Options{})
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("solver %d: %v", g, errs[g])
		}
		sameSolve(t, "concurrent SolveWith", got[g], refs[g])
	}
}
