package fsaicomm

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func residualInf(a *Matrix, x, b []float64) float64 {
	r := make([]float64, len(b))
	a.MulVec(x, r)
	m := 0.0
	for i := range r {
		d := math.Abs(b[i] - r[i])
		if d > m {
			m = d
		}
	}
	return m
}

func TestSolveSerialAllMethods(t *testing.T) {
	a := GeneratePoisson2D(18, 18)
	b := GenerateRHS(a, 1)
	var prevIters int
	for i, m := range []Method{FSAI, FSAIE, FSAIEComm} {
		res, err := Solve(a, b, Options{Method: m, Filter: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%v did not converge", m)
		}
		if r := residualInf(a, res.X, b); r > 1e-4*a.MaxNorm() {
			t.Fatalf("%v residual %g", m, r)
		}
		if i > 0 && res.Iterations > prevIters {
			t.Fatalf("%v iterations %d above previous method %d", m, res.Iterations, prevIters)
		}
		prevIters = res.Iterations
	}
}

func TestSolveDistributedMatchesSerial(t *testing.T) {
	a := GenerateElasticity2D(10, 10, 7)
	b := GenerateRHS(a, 2)
	serial, err := Solve(a, b, Options{Method: FSAIEComm, Filter: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := SolveDistributed(a, b, Options{Method: FSAIEComm, Filter: 0.01, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !dist.Converged {
		t.Fatal("distributed solve did not converge")
	}
	if dist.Ranks != 4 {
		t.Fatalf("ranks = %d", dist.Ranks)
	}
	if dist.CommBytes <= 0 {
		t.Fatal("no communication metered")
	}
	// Same solution up to solver tolerance.
	for i := range serial.X {
		if math.Abs(serial.X[i]-dist.X[i]) > 1e-4*(1+math.Abs(serial.X[i])) {
			t.Fatalf("x[%d]: serial %g vs dist %g", i, serial.X[i], dist.X[i])
		}
	}
	if r := residualInf(a, dist.X, b); r > 1e-4*a.MaxNorm() {
		t.Fatalf("distributed residual %g", r)
	}
}

func TestSolveDistributedDefaultRanks(t *testing.T) {
	a := GeneratePoisson2D(30, 30)
	b := GenerateRHS(a, 3)
	res, err := SolveDistributed(a, b, Options{Method: FSAI})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks < 2 {
		t.Fatalf("default ranks = %d", res.Ranks)
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	a := GeneratePoisson2D(4, 4)
	if _, err := Solve(a, make([]float64, 3), Options{}); err == nil {
		t.Fatal("short rhs accepted")
	}
	// Asymmetric matrix.
	c := NewCOO(3, 3)
	c.Add(0, 0, 2)
	c.Add(1, 1, 2)
	c.Add(2, 2, 2)
	c.Add(0, 1, -1)
	bad := c.ToCSR()
	if _, err := Solve(bad, make([]float64, 3), Options{}); err == nil {
		t.Fatal("asymmetric matrix accepted")
	} else if !strings.Contains(err.Error(), "symmetric") {
		t.Fatalf("unexpected error: %v", err)
	}
	rect := NewCOO(2, 3)
	if _, err := Solve(rect.ToCSR(), make([]float64, 2), Options{}); err == nil {
		t.Fatal("rectangular matrix accepted")
	}
}

// TestSolveRejectsNonFinite: a NaN or Inf anywhere in the matrix or the
// right-hand side is an input error surfaced as ErrInvalidOptions before
// any factorization or caching happens — not a breakdown half-way through.
func TestSolveRejectsNonFinite(t *testing.T) {
	a := GeneratePoisson2D(4, 4)
	b := GenerateRHS(a, 1)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rhs := append([]float64(nil), b...)
		rhs[5] = bad
		if _, err := Solve(a, rhs, Options{}); !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("serial rhs %v: %v", bad, err)
		}
		if _, err := SolveDistributed(a, rhs, Options{Ranks: 2}); !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("distributed rhs %v: %v", bad, err)
		}
	}
	aa := a.Clone()
	aa.Val[0] = math.NaN()
	if _, err := Solve(aa, b, Options{}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("NaN matrix solve: %v", err)
	}
	if _, err := Prepare(aa, Options{Ranks: 2}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("NaN matrix prepare: %v", err)
	}
	if _, err := BuildPreconditioner(aa, Options{}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("NaN matrix preconditioner: %v", err)
	}
}

func TestMatrixMarketRoundTripFacade(t *testing.T) {
	a := GeneratePoisson2D(5, 5)
	var sb strings.Builder
	if err := WriteMatrixMarket(&sb, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != a.NNZ() {
		t.Fatal("round trip changed nnz")
	}
}

func TestDynamicStrategyOption(t *testing.T) {
	a := GenerateElasticity2D(9, 9, 4)
	b := GenerateRHS(a, 5)
	res, err := SolveDistributed(a, b, Options{
		Method: FSAIEComm, Filter: 0.01, Strategy: DynamicFilter, Ranks: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.ImbalanceIndex <= 0 || res.ImbalanceIndex > 1 {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestArchProfilesExported(t *testing.T) {
	if Skylake.LineBytes != 64 || A64FX.LineBytes != 256 || Zen2.LineBytes != 64 {
		t.Fatal("exported profiles wrong")
	}
}

func TestPatternLevelOption(t *testing.T) {
	a := GeneratePoisson2D(14, 14)
	b := GenerateRHS(a, 9)
	l1, err := Solve(a, b, Options{Method: FSAI})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Solve(a, b, Options{Method: FSAI, PatternLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if l2.Iterations >= l1.Iterations {
		t.Fatalf("level-2 base pattern (%d iters) not better than level-1 (%d)", l2.Iterations, l1.Iterations)
	}
	// Distributed path accepts the option too.
	d2, err := SolveDistributed(a, b, Options{Method: FSAIEComm, PatternLevel: 2, Filter: 0.01, Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Converged {
		t.Fatal("distributed level-2 solve did not converge")
	}
}

func TestPreconditionerReuse(t *testing.T) {
	a := GeneratePoisson2D(15, 15)
	p, err := BuildPreconditioner(a, Options{Method: FSAIEComm, Filter: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if p.Method() != FSAIEComm || p.PctNNZIncrease() <= 0 {
		t.Fatalf("metadata wrong: %v %v", p.Method(), p.PctNNZIncrease())
	}
	// Solve three different systems with the same factor.
	for seed := int64(1); seed <= 3; seed++ {
		b := GenerateRHS(a, seed)
		res, err := p.SolveWith(b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: not converged", seed)
		}
		if r := residualInf(a, res.X, b); r > 1e-4*a.MaxNorm() {
			t.Fatalf("seed %d: residual %g", seed, r)
		}
	}
	// Apply is the GᵀG action: z must differ from r and be finite.
	r := GenerateRHS(a, 9)
	z := make([]float64, a.Rows)
	p.Apply(r, z)
	same := true
	for i := range z {
		if z[i] != r[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("Apply was a no-op")
	}
	if p.Factor() == nil || p.Pattern().NNZ() == 0 {
		t.Fatal("factor inspection broken")
	}
	if p.SetupTime() <= 0 {
		t.Fatal("setup time not recorded")
	}
}

func TestPreconditionerRejectsBadInput(t *testing.T) {
	c := NewCOO(2, 3)
	if _, err := BuildPreconditioner(c.ToCSR(), Options{}); err == nil {
		t.Fatal("rectangular accepted")
	}
	a := GeneratePoisson2D(4, 4)
	p, err := BuildPreconditioner(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SolveWith(make([]float64, 3), Options{}); err == nil {
		t.Fatal("short rhs accepted")
	}
}

func TestReorderingFacade(t *testing.T) {
	a := GeneratePoisson2D(6, 6)
	perm, err := RCM(a)
	if err != nil {
		t.Fatal(err)
	}
	b := PermuteSym(a, perm)
	if Bandwidth(b) > Bandwidth(a) {
		t.Fatalf("RCM increased bandwidth: %d > %d", Bandwidth(b), Bandwidth(a))
	}
	if b.NNZ() != a.NNZ() {
		t.Fatal("permutation changed nnz")
	}
}

func TestPartitionerOption(t *testing.T) {
	a := GeneratePoisson2D(16, 16)
	b := GenerateRHS(a, 4)
	var commBytes []int64
	for _, p := range []string{"multilevel", "block", "strip"} {
		res, err := SolveDistributed(a, b, Options{Method: FSAI, Ranks: 4, Partitioner: p})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !res.Converged {
			t.Fatalf("%s: not converged", p)
		}
		commBytes = append(commBytes, res.CommBytes)
	}
	// Strip (round-robin) must cost far more communication than multilevel.
	if commBytes[2] < 3*commBytes[0] {
		t.Fatalf("strip comm %d not far above multilevel %d", commBytes[2], commBytes[0])
	}
	if _, err := SolveDistributed(a, b, Options{Partitioner: "bogus"}); err == nil {
		t.Fatal("unknown partitioner accepted")
	}
}

// The per-window breakdown of the modeled solve time reconciles exactly with
// ModeledSolveTime for every CG variant, and the windows land where the
// schedules put them: classic and fused block at every product and hide
// nothing — fused's halo window is classic's, per iteration — and only the
// pipelined loop, whose A product overlaps its halo exchange and whose
// reduction is nonblocking, hides halo and reduction time.
func TestPhasesReconcileWithModeledSolveTime(t *testing.T) {
	a := GeneratePoisson2D(16, 16)
	b := GenerateRHS(a, 1)
	var classic WindowReport // classic's halo window per iteration
	for _, v := range []CGVariant{CGClassic, CGFused, CGPipelined} {
		res, err := SolveDistributed(a, b, Options{Method: FSAIEComm, Filter: 0.05, Strategy: DynamicFilter,
			Ranks: 3, Arch: "zen2", CGVariant: v})
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Phases
		if rep.TotalSec != res.ModeledSolveTime {
			t.Fatalf("%v: Phases.TotalSec %g != ModeledSolveTime %g", v, rep.TotalSec, res.ModeledSolveTime)
		}
		if len(rep.Windows) != 2 || rep.Windows[0].Name != "halo" || rep.Windows[1].Name != "reduction" ||
			rep.Windows[0].RawSec <= 0 || rep.Windows[1].RawSec <= 0 {
			t.Fatalf("%v: want non-empty halo and reduction windows, got %+v", v, rep.Windows)
		}
		// The whole-solve report is the per-iteration one scaled by the
		// iteration count; scaling each component separately costs an ulp,
		// so the window split reconciles to relative rounding error.
		for _, w := range rep.Windows {
			if d := w.HiddenSec - (w.RawSec - w.ExposedSec); d > 1e-12*w.RawSec || d < -1e-12*w.RawSec {
				t.Fatalf("%v: window %q does not split raw time: %+v", v, w.Name, w)
			}
			if w.HiddenSec < 0 || w.ExposedSec < 0 {
				t.Fatalf("%v: window %q negative component: %+v", v, w.Name, w)
			}
		}
		halo, red := rep.Windows[0], rep.Windows[1]
		if v == CGPipelined && (halo.HiddenSec <= 0 || red.HiddenSec <= 0) ||
			v != CGPipelined && (halo.HiddenSec != 0 || red.HiddenSec != 0) {
			t.Fatalf("%v: only pipelined hides, and both windows: halo %+v reduction %+v", v, halo, red)
		}
		n := float64(res.Iterations)
		perIter := WindowReport{RawSec: halo.RawSec / n, HiddenSec: halo.HiddenSec / n, ExposedSec: halo.ExposedSec / n}
		switch v {
		case CGClassic:
			classic = perIter
		case CGFused:
			// Fused runs classic's products on the same operators, so its
			// halo window is classic's: the same traffic, nothing hidden.
			for _, d := range []float64{perIter.RawSec - classic.RawSec, perIter.HiddenSec - classic.HiddenSec, perIter.ExposedSec - classic.ExposedSec} {
				if d > 1e-12*classic.RawSec || d < -1e-12*classic.RawSec {
					t.Fatalf("fused halo window per iteration %+v, classic's %+v", perIter, classic)
				}
			}
		}
	}
}

// The observability surface of the facade: opt-in per-iteration traces, the
// per-window modeled-time breakdown reconciling exactly with
// ModeledSolveTime, and the pipelined residual-replacement knob.
func TestSolveTelemetryFacade(t *testing.T) {
	a := GeneratePoisson2D(16, 16)
	b := GenerateRHS(a, 1)

	res, err := SolveDistributed(a, b, Options{Method: FSAIEComm, Filter: 0.01, Ranks: 4, Trace: true})
	if err != nil || !res.Converged {
		t.Fatalf("traced distributed solve: %+v, %v", res, err)
	}
	if res.Trace == nil || res.Trace.Rank != 0 || len(res.Trace.Iters) != res.Iterations {
		t.Fatalf("trace missing or wrong shape: %+v", res.Trace)
	}
	if tot := res.Trace.Total(); tot.CollectiveCalls <= 0 || tot.P2PBytes <= 0 {
		t.Fatalf("trace totals empty: %+v", tot)
	}
	if res.Phases.TotalSec != res.ModeledSolveTime {
		t.Fatalf("Phases.TotalSec %g != ModeledSolveTime %g", res.Phases.TotalSec, res.ModeledSolveTime)
	}
	names := map[string]bool{}
	for _, w := range res.Phases.Windows {
		names[w.Name] = true
	}
	if !names["halo"] || !names["reduction"] {
		t.Fatalf("phase windows missing: %+v", res.Phases.Windows)
	}

	plain, err := SolveDistributed(a, b, Options{Method: FSAIEComm, Filter: 0.01, Ranks: 4})
	if err != nil || plain.Trace != nil {
		t.Fatalf("untraced solve carries trace: %+v, %v", plain.Trace, err)
	}
	for i := range plain.X {
		if plain.X[i] != res.X[i] {
			t.Fatalf("tracing changed x[%d]: %v vs %v", i, plain.X[i], res.X[i])
		}
	}

	ser, err := Solve(a, b, Options{Method: FSAI, Trace: true})
	if err != nil || ser.Trace == nil || len(ser.Trace.Iters) != ser.Iterations {
		t.Fatalf("serial trace missing: %+v, %v", ser.Trace, err)
	}
	m, err := BuildPreconditioner(a, Options{Method: FSAI})
	if err != nil {
		t.Fatal(err)
	}
	if with, err := m.SolveWith(b, Options{Trace: true}); err != nil || with.Trace == nil || len(with.Trace.Iters) != with.Iterations {
		t.Fatalf("SolveWith trace missing: %+v, %v", with, err)
	}

	rr, err := SolveDistributed(a, b, Options{Method: FSAIEComm, Filter: 0.01, Ranks: 4,
		CGVariant: CGPipelined, ResidualReplaceEvery: 10})
	if err != nil || !rr.Converged {
		t.Fatalf("pipelined solve with residual replacement: %+v, %v", rr, err)
	}
}
