package fsaicomm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fsaicomm/internal/archmodel"
	"fsaicomm/internal/mprun"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
		want string // substring of the error; "" means valid
	}{
		{"zero value", Options{}, ""},
		{"typical", Options{Method: FSAIEComm, Filter: 0.05, Tol: 1e-9, Ranks: 4, CGVariant: CGFused}, ""},
		{"negative tol", Options{Tol: -1}, "Tol"},
		{"nan tol", Options{Tol: math.NaN()}, "Tol"},
		{"negative maxiter", Options{MaxIter: -5}, "MaxIter"},
		{"negative ranks", Options{Ranks: -2}, "Ranks"},
		{"most ranks allowed", Options{Ranks: MaxRanks}, ""},
		{"too many ranks", Options{Ranks: MaxRanks + 1}, "Ranks"},
		{"negative filter", Options{Filter: -0.1}, "Filter"},
		{"negative linebytes", Options{LineBytes: -64}, "LineBytes"},
		{"negative pattern level", Options{PatternLevel: -1}, "PatternLevel"},
		{"negative threshold", Options{Threshold: -1e-3}, "Threshold"},
		{"negative replace every", Options{ResidualReplaceEvery: -1}, "ResidualReplaceEvery"},
		{"unknown method", Options{Method: Method(42)}, "method"},
		{"unknown strategy", Options{Strategy: FilterStrategy(9)}, "strategy"},
		{"unknown partitioner", Options{Partitioner: "metis"}, "partitioner"},
		{"unknown cg variant", Options{CGVariant: CGVariant(7)}, "CG variant"},
		{"unknown arch", Options{Arch: "m1"}, "arch"},
	}
	for _, tc := range cases {
		err := tc.opt.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
			continue
		}
		if !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s: error %v is not ErrInvalidOptions", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// The validator is shared by every entry point: bad options must be
// rejected before any work happens, with ErrInvalidOptions classifiable.
func TestEntryPointsValidateOptions(t *testing.T) {
	a := GeneratePoisson2D(8, 8)
	b := GenerateRHS(a, 1)
	bad := Options{MaxIter: -1}
	if _, err := Solve(a, b, bad); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Solve: %v", err)
	}
	if _, err := SolveDistributed(a, b, bad); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("SolveDistributed: %v", err)
	}
	if _, err := BuildPreconditioner(a, bad); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("BuildPreconditioner: %v", err)
	}
	if _, err := Prepare(a, bad); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Prepare: %v", err)
	}
	p, err := Prepare(a, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(context.Background(), b, SolveOptions{Tol: -1}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Prepared.Solve: %v", err)
	}
}

func TestParseMethod(t *testing.T) {
	for in, want := range map[string]Method{
		"": FSAIEComm, "fsai": FSAI, "FSAIE": FSAIE,
		"fsaie-comm": FSAIEComm, "fsaiecomm": FSAIEComm,
	} {
		got, err := ParseMethod(in)
		if err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMethod("ilu"); err == nil {
		t.Error("ParseMethod accepted an unknown method")
	}
}

// A prepared system must reproduce SolveDistributed bit for bit: the same
// partition, factors and solver loop, only the setup phase is skipped.
func TestPreparedMatchesSolveDistributed(t *testing.T) {
	a := GenerateElasticity2D(9, 9, 3)
	b := GenerateRHS(a, 4)
	fsaie := Options{Method: FSAIEComm, Filter: 0.01, Ranks: 3}
	cases := []struct {
		name string
		base Options
		set  func(o *Options)
	}{
		{"classic", fsaie, func(o *Options) {}},
		{"fused", fsaie, func(o *Options) { o.CGVariant = CGFused }},
		{"pipelined", fsaie, func(o *Options) { o.CGVariant = CGPipelined }},
		{"classic-overlap", fsaie, func(o *Options) { o.CGVariant = CGClassicOverlap }},
		{"fp32", fsaie, func(o *Options) { o.Precision = FP32 }},
		{"2 nodes", fsaie, func(o *Options) { o.Ranks, o.Nodes = 4, 2 }},
		{"2 nodes unaggregated", fsaie, func(o *Options) { o.Ranks, o.Nodes, o.NoNodeAggregation = 4, 2, true }},
		{"spai+gmres", Options{Method: SPAI, Solver: SolverGMRES, SPAISteps: 1, Ranks: 3}, func(o *Options) {}},
	}
	for _, tc := range cases {
		v, opt := tc.name, tc.base
		tc.set(&opt)
		ref, err := SolveDistributed(a, b, opt)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		p, err := Prepare(a, opt)
		if err != nil {
			t.Fatalf("%v: Prepare: %v", v, err)
		}
		got, err := p.Solve(context.Background(), b, SolveOptions{CGVariant: opt.CGVariant,
			Nodes: opt.Nodes, NoNodeAggregation: opt.NoNodeAggregation})
		if err != nil {
			t.Fatalf("%v: Prepared.Solve: %v", v, err)
		}
		if got.Iterations != ref.Iterations || got.Converged != ref.Converged {
			t.Fatalf("%v: iterations %d/%v, reference %d/%v",
				v, got.Iterations, got.Converged, ref.Iterations, ref.Converged)
		}
		for i := range ref.X {
			if got.X[i] != ref.X[i] {
				t.Fatalf("%v: x[%d] differs: %g != %g", v, i, got.X[i], ref.X[i])
			}
		}
		if got.SetupTime != 0 {
			t.Fatalf("%v: prepared solve reports setup time %v", v, got.SetupTime)
		}
		if got.CommBytes != ref.CommBytes {
			t.Fatalf("%v: comm bytes %d, reference %d (setup traffic leaked into the solve?)",
				v, got.CommBytes, ref.CommBytes)
		}
		// Solve-phase attribution is exact on both paths: the per-rank
		// snapshot delta is taken at the setup/solve boundary, so the Krylov
		// loops' collectives match one for one.
		if got.CollectiveCalls != ref.CollectiveCalls {
			t.Fatalf("%v: collective calls %d, reference %d", v, got.CollectiveCalls, ref.CollectiveCalls)
		}
	}
}

// A Prepared remembers, per architecture profile, the cache-simulator misses
// its first scalar solve traced and hands them to every later solve. The
// modeled time they feed must not notice: solve 1 (which traces), solve 2
// (which is handed the result), a tcp solve (whose workers receive it in
// their spec) and a from-scratch SolveDistributed (which always traces)
// agree to the bit — for skylake, then a64fx, then skylake again, so two
// profiles sit side by side; classic and fused; flat and two nodes; and for
// an SPAI+GMRES system, whose misses are those of A and M.
func TestMissMemoChangesNoModeledTime(t *testing.T) {
	a := GenerateElasticity2D(9, 9, 3)
	b := GenerateRHS(a, 4)
	ctx := context.Background()
	for _, sys := range []struct {
		name     string
		opt      Options
		variants []CGVariant
	}{
		{"fsaie-comm", Options{Method: FSAIEComm, Filter: 0.01, Ranks: 4}, []CGVariant{CGClassic, CGFused}},
		{"spai+gmres", Options{Method: SPAI, Solver: SolverGMRES, SPAISteps: 1, Ranks: 4}, []CGVariant{CGClassic}},
	} {
		p, err := Prepare(a, sys.opt)
		if err != nil {
			t.Fatalf("%s: Prepare: %v", sys.name, err)
		}
		for pass, arch := range []string{"skylake", "a64fx", "skylake"} {
			// Worker processes are slow to start; they join on the last pass,
			// when what they are handed was traced two profiles ago.
			transports := []string{"sim", "sim"}
			if pass == 2 {
				transports = append(transports, "tcp")
			}
			for _, variant := range sys.variants {
				for _, nodes := range []int{0, 2} {
					at := fmt.Sprintf("%s arch=%s cg=%v nodes=%d", sys.name, arch, variant, nodes)
					opt := sys.opt
					opt.Arch, opt.CGVariant, opt.Nodes = arch, variant, nodes
					ref, err := SolveDistributed(a, b, opt)
					if err != nil {
						t.Fatalf("%s: SolveDistributed: %v", at, err)
					}
					so := SolveOptions{Arch: arch, CGVariant: variant, Nodes: nodes}
					for _, transport := range transports {
						so.Transport = transport
						got, err := p.Solve(ctx, b, so)
						if err != nil {
							t.Fatalf("%s %s: %v", at, transport, err)
						}
						if got.ModeledSolveTime != ref.ModeledSolveTime || !reflect.DeepEqual(got.Phases, ref.Phases) {
							t.Fatalf("%s %s: modeled %v s, from scratch %v s", at, transport, got.ModeledSolveTime, ref.ModeledSolveTime)
						}
					}
				}
			}
		}
		if len(p.traced) != 2 || p.traced[archmodel.Skylake] == nil || p.traced[archmodel.A64FX] == nil {
			t.Fatalf("%s: %d profiles remembered, want skylake and a64fx", sys.name, len(p.traced))
		}
	}
}

// The remembered misses reach worker processes inside the job spec: planted
// values no trace could produce move the modeled time of a tcp solve exactly
// as they move a sim solve's — workers that traced anyway would not notice
// them. The memo itself is filled by a tcp solve here, from the outcomes the
// workers sent back.
func TestMissMemoTravelsToWorkers(t *testing.T) {
	a := GeneratePoisson2D(14, 14)
	b := GenerateRHS(a, 2)
	ctx := context.Background()
	p, err := Prepare(a, Options{Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := p.Solve(ctx, b, SolveOptions{Transport: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	held := p.traced[archmodel.Skylake]
	if len(held) != 3 {
		t.Fatalf("a tcp first solve left %d ranks' misses, want 3", len(held))
	}
	for r := range held {
		held[r].Misses = &mprun.TracedMisses{A: 1 << 40, Precond: 1 << 40}
	}
	sim, err := p.Solve(ctx, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := p.Solve(ctx, b, SolveOptions{Transport: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	if sim.ModeledSolveTime == traced.ModeledSolveTime {
		t.Fatal("planted misses did not move the sim solve's modeled time")
	}
	if tcp.ModeledSolveTime != sim.ModeledSolveTime {
		t.Fatalf("tcp workers modeled %v s, sim ranks %v s: the spec did not carry the misses", tcp.ModeledSolveTime, sim.ModeledSolveTime)
	}
}

// Eight first solves racing on a fresh Prepared may each trace; whichever
// result is kept is the same, and every one of them reports the modeled time
// a lone solve does. Run under -race by `make tier2`.
func TestMissMemoConcurrentFirstSolves(t *testing.T) {
	a := GeneratePoisson2D(20, 20)
	b := GenerateRHS(a, 8)
	opt := Options{Method: FSAIEComm, Filter: 0.01, Ranks: 4}
	ref, err := SolveDistributed(a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	const solvers = 8
	results := make([]*Result, solvers)
	errs := make([]error, solvers)
	var wg sync.WaitGroup
	for w := 0; w < solvers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w], errs[w] = p.Solve(context.Background(), b, SolveOptions{})
		}()
	}
	wg.Wait()
	for w := range results {
		if errs[w] != nil {
			t.Fatalf("solver %d: %v", w, errs[w])
		}
		if results[w].ModeledSolveTime != ref.ModeledSolveTime {
			t.Fatalf("solver %d: modeled %v s, a lone solve %v s", w, results[w].ModeledSolveTime, ref.ModeledSolveTime)
		}
	}
	again, err := p.Solve(context.Background(), b, SolveOptions{})
	if err != nil || again.ModeledSolveTime != ref.ModeledSolveTime {
		t.Fatalf("solve after the race: modeled %v s (err %v), a lone solve %v s", again.ModeledSolveTime, err, ref.ModeledSolveTime)
	}
}

// Concurrent solves on one Prepared must not interfere: every goroutine
// gets the bit-identical solution the sequential solve produces.
func TestPreparedConcurrentSolves(t *testing.T) {
	a := GeneratePoisson2D(20, 20)
	b := GenerateRHS(a, 8)
	p, err := Prepare(a, Options{Method: FSAIEComm, Filter: 0.01, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.Solve(context.Background(), b, SolveOptions{CGVariant: CGFused})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 6
	results := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w], errs[w] = p.Solve(context.Background(), b, SolveOptions{CGVariant: CGFused})
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if results[w].Iterations != ref.Iterations {
			t.Fatalf("worker %d: %d iterations, reference %d", w, results[w].Iterations, ref.Iterations)
		}
		for i := range ref.X {
			if results[w].X[i] != ref.X[i] {
				t.Fatalf("worker %d: x[%d] differs", w, i)
			}
		}
	}
}

// Cancellation through the facade: a canceled context yields ErrCanceled
// with the partial result, both in SolveContext and on a Prepared system.
func TestFacadeCancellation(t *testing.T) {
	a := GeneratePoisson2D(16, 16)
	b := GenerateRHS(a, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveContext(ctx, a, b, Options{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("SolveContext: got %v, want ErrCanceled", err)
	}
	if res == nil || res.Iterations != 0 || res.Converged {
		t.Fatalf("SolveContext: partial result %+v", res)
	}
	res, err = SolveDistributedContext(ctx, a, b, Options{Ranks: 2})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("SolveDistributedContext: got %v, want ErrCanceled", err)
	}
	if res == nil || res.Converged {
		t.Fatal("SolveDistributedContext: no partial result")
	}
	p, err := Prepare(a, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err = p.Solve(ctx, b, SolveOptions{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Prepared.Solve: got %v, want ErrCanceled", err)
	}
	if res == nil || res.Converged {
		t.Fatal("Prepared.Solve: no partial result")
	}
}

func TestPreparedAccessors(t *testing.T) {
	a := GeneratePoisson2D(12, 12)
	p, err := Prepare(a, Options{Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.Ranks() != 3 || p.Rows() != a.Rows {
		t.Fatalf("ranks %d rows %d", p.Ranks(), p.Rows())
	}
	if p.SetupTime() <= 0 {
		t.Fatal("setup time not recorded")
	}
	if p.SizeBytes() <= 0 {
		t.Fatal("size estimate not positive")
	}
	if got := p.Options().Ranks; got != 3 {
		t.Fatalf("canonicalized ranks %d", got)
	}
	if p.Options().Tol != 1e-8 {
		t.Fatalf("canonicalized tol %g", p.Options().Tol)
	}
}

func TestAutoRanks(t *testing.T) {
	a := GeneratePoisson2D(10, 10)
	if got := AutoRanks(a, 5); got != 5 {
		t.Fatalf("explicit request: %d", got)
	}
	if got := AutoRanks(a, 0); got != 2 {
		t.Fatalf("small matrix: %d, want clamp to 2", got)
	}
	big := GeneratePoisson2D(300, 300)
	got := AutoRanks(big, 0)
	if got < 2 || got > 12 {
		t.Fatalf("auto ranks %d outside [2,12]", got)
	}
}
