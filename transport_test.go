package fsaicomm

import (
	"context"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"fsaicomm/internal/mprun"
	"fsaicomm/internal/testsets"
)

// TestMain lets this test binary self-host the rank worker processes the
// "tcp" transport spawns: mprun.Start re-executes the current binary, and
// MaybeWorker diverts those copies into worker mode before any test runs.
func TestMain(m *testing.M) {
	mprun.MaybeWorker()
	os.Exit(m.Run())
}

// TestSolveDistributedTransportDifferential is the end-to-end cross-backend
// check of the issue: the same solve through goroutine ranks and through one
// OS process per rank must agree bit for bit — solution vector, iteration
// count, and the metered communication structure.
func TestSolveDistributedTransportDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	for _, name := range []string{"Dubcova2-sim", "gyro-sim"} {
		t.Run(name, func(t *testing.T) {
			sp, err := testsets.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			a := sp.Generate()
			b := GenerateRHS(a, 11)
			opt := Options{Method: FSAIEComm, Filter: 0.01, Ranks: 4}

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
			if tcp.PctNNZIncrease != sim.PctNNZIncrease || tcp.ImbalanceIndex != sim.ImbalanceIndex {
				t.Errorf("build metrics diverge: tcp (%g, %g) vs sim (%g, %g)",
					tcp.PctNNZIncrease, tcp.ImbalanceIndex, sim.PctNNZIncrease, sim.ImbalanceIndex)
			}
			if tcp.ModeledSolveTime != sim.ModeledSolveTime {
				t.Errorf("modeled time diverges: tcp %g vs sim %g", tcp.ModeledSolveTime, sim.ModeledSolveTime)
			}
		})
	}
}

// TestPreparedSolveTransportDifferential ships the cached factors to worker
// processes and demands the same bit-identity a fresh solve gets; the
// prepared path must also stay free of setup traffic on the wire.
func TestPreparedSolveTransportDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	a := GeneratePoisson2D(24, 24)
	b := GenerateRHS(a, 5)
	p, err := Prepare(a, Options{Method: FSAIEComm, Filter: 0.01, Ranks: 4})
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
		if tcp.Iterations != sim.Iterations || tcp.RelResidual != sim.RelResidual {
			t.Fatalf("%v: stats diverge: tcp (%d, %g) vs sim (%d, %g)",
				v, tcp.Iterations, tcp.RelResidual, sim.Iterations, sim.RelResidual)
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
		if tcp.SetupTime != 0 {
			t.Fatalf("%v: prepared tcp solve reports setup time %v", v, tcp.SetupTime)
		}
	}
}

// TestNodeAwareTransportDifferential is the end-to-end proof of the
// node-aware aggregation claim, across every CG variant and both backends:
// under a declared 2-node × 2-rank topology the aggregated exchange must
// leave the solution, the iteration count and the inter-node byte volume
// bit-identical to the flat per-rank schedule while strictly reducing the
// inter-node message count — and the goroutine and process backends must
// meter all of it identically.
func TestNodeAwareTransportDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	a := GeneratePoisson2D(24, 24)
	b := GenerateRHS(a, 5)
	p, err := Prepare(a, Options{Method: FSAIEComm, Filter: 0.01, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []CGVariant{CGClassic, CGFused, CGPipelined} {
		var simNap *Result
		for _, tr := range []string{"", "tcp"} {
			so := SolveOptions{CGVariant: v, Transport: tr, Nodes: 2, RanksPerNode: 2}
			so.NoNodeAggregation = true
			flat, err := p.Solve(context.Background(), b, so)
			if err != nil {
				t.Fatalf("%v %q flat: %v", v, tr, err)
			}
			so.NoNodeAggregation = false
			nap, err := p.Solve(context.Background(), b, so)
			if err != nil {
				t.Fatalf("%v %q node-aware: %v", v, tr, err)
			}
			if nap.Iterations != flat.Iterations || nap.RelResidual != flat.RelResidual {
				t.Fatalf("%v %q: stats diverge: node-aware (%d, %g) vs flat (%d, %g)",
					v, tr, nap.Iterations, nap.RelResidual, flat.Iterations, flat.RelResidual)
			}
			for i := range flat.X {
				if nap.X[i] != flat.X[i] {
					t.Fatalf("%v %q: x[%d] diverges: node-aware %v vs flat %v", v, tr, i, nap.X[i], flat.X[i])
				}
			}
			for _, r := range []*Result{flat, nap} {
				if r.IntraNodeBytes+r.InterNodeBytes != r.CommBytes ||
					r.IntraNodeMessages+r.InterNodeMessages != r.CommMessages {
					t.Fatalf("%v %q: topology split does not sum to the totals: intra %d/%d + inter %d/%d vs %d/%d",
						v, tr, r.IntraNodeMessages, r.IntraNodeBytes,
						r.InterNodeMessages, r.InterNodeBytes, r.CommMessages, r.CommBytes)
				}
			}
			if nap.InterNodeBytes != flat.InterNodeBytes {
				t.Fatalf("%v %q: aggregation changed inter-node bytes: flat %d, node-aware %d",
					v, tr, flat.InterNodeBytes, nap.InterNodeBytes)
			}
			if nap.InterNodeMessages >= flat.InterNodeMessages {
				t.Fatalf("%v %q: aggregation did not reduce inter-node messages: flat %d, node-aware %d",
					v, tr, flat.InterNodeMessages, nap.InterNodeMessages)
			}
			// The model never charges aggregation more than the flat schedule.
			if nap.ModeledSolveTime > flat.ModeledSolveTime {
				t.Fatalf("%v %q: aggregation raised the modeled solve time: flat %g s, node-aware %g s",
					v, tr, flat.ModeledSolveTime, nap.ModeledSolveTime)
			}
			if tr == "" {
				simNap = nap
				continue
			}
			// Cross-backend: the process mesh must reproduce the goroutine
			// world bit for bit, meters included.
			if nap.IntraNodeBytes != simNap.IntraNodeBytes || nap.IntraNodeMessages != simNap.IntraNodeMessages ||
				nap.InterNodeBytes != simNap.InterNodeBytes || nap.InterNodeMessages != simNap.InterNodeMessages {
				t.Fatalf("%v: meters diverge across backends: tcp intra %d/%d inter %d/%d vs sim intra %d/%d inter %d/%d",
					v, nap.IntraNodeMessages, nap.IntraNodeBytes, nap.InterNodeMessages, nap.InterNodeBytes,
					simNap.IntraNodeMessages, simNap.IntraNodeBytes, simNap.InterNodeMessages, simNap.InterNodeBytes)
			}
			for i := range simNap.X {
				if nap.X[i] != simNap.X[i] {
					t.Fatalf("%v: node-aware x[%d] diverges across backends: tcp %v vs sim %v",
						v, i, nap.X[i], simNap.X[i])
				}
			}
		}
	}
}

// TestPreparedSolveTCPCancel cancels a multi-process prepared solve
// mid-flight: the workers must wind down within the kill grace, and the
// caller gets the partial Result with an ErrCanceled-wrapped error — the
// same contract the in-process backend honors.
func TestPreparedSolveTCPCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	// The tiny (but positive: zero means "default") tolerance cannot be met
	// until the recurrence residual underflows to exactly zero, which on
	// this fixture takes ~3.4s of multi-process solving (measured; the
	// underflow bounds how long ANY tiny-tolerance run can last, so "run
	// forever" is not an option; a 96×96 grid, which used to take ~1.5s
	// over sockets, is through in 0.3s over the rings). The cancel is timed
	// well inside that window: a first solve has started the workers and left
	// them the operators — which under the race detector takes longer than
	// the cancel waits — so the one that is canceled is underway within
	// milliseconds of Solve being called.
	a := GeneratePoisson2D(192, 192)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%7)/7
	}
	p, err := Prepare(a, Options{Method: FSAIEComm, Filter: 0.01, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(context.Background(), b, SolveOptions{Transport: "tcp", Tol: 0.1}); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := p.Solve(ctx, b, SolveOptions{Tol: 1e-300, MaxIter: 1 << 30, Transport: "tcp"})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got error %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancel took %v to wind down", elapsed)
	}
	if res == nil {
		t.Fatal("no partial result alongside ErrCanceled")
	}
	if len(res.X) != a.Rows {
		t.Fatalf("partial X length %d, want %d", len(res.X), a.Rows)
	}
	if res.Converged {
		t.Fatal("Converged = true on a canceled solve")
	}
	if res.Iterations == 0 {
		t.Fatal("Iterations = 0: cancel landed before the solve started?")
	}
}

// TestPreparedNilContext: a nil ctx is never canceled, over either
// transport, at both prepared entries. Solve and SolveBatch of one
// right-hand side with a nil ctx, over sim and over tcp, give the bits of x
// and the iterations of a sim Solve under context.Background, and Solve its
// communication meters.
func TestPreparedNilContext(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	a := GeneratePoisson2D(24, 24)
	b := GenerateRHS(a, 7)
	p, err := Prepare(a, Options{Method: FSAIEComm, Filter: 0.01, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	want, err := p.Solve(context.Background(), b, SolveOptions{})
	if err != nil || !want.Converged {
		t.Fatalf("reference solve: converged %v, err %v", want != nil && want.Converged, err)
	}
	for _, transport := range []string{"sim", "tcp"} {
		so := SolveOptions{Transport: transport}
		res, err := p.Solve(nil, b, so)
		if err != nil {
			t.Fatalf("%s Solve: %v", transport, err)
		}
		if res.CollectiveCalls != want.CollectiveCalls || res.CommBytes != want.CommBytes {
			t.Fatalf("%s Solve: meters (%d collectives, %d bytes), want (%d, %d)", transport,
				res.CollectiveCalls, res.CommBytes, want.CollectiveCalls, want.CommBytes)
		}
		batch, err := p.SolveBatch(nil, [][]float64{b}, so)
		if err != nil {
			t.Fatalf("%s SolveBatch: %v", transport, err)
		}
		for _, got := range []struct {
			entry string
			x     []float64
			iters int
		}{{"Solve", res.X, res.Iterations}, {"SolveBatch", batch.Cols[0].X, batch.Cols[0].Iterations}} {
			if got.iters != want.Iterations {
				t.Fatalf("%s %s: %d iterations, want %d", transport, got.entry, got.iters, want.Iterations)
			}
			for i := range want.X {
				if math.Float64bits(got.x[i]) != math.Float64bits(want.X[i]) {
					t.Fatalf("%s %s: x[%d] = %v, want %v", transport, got.entry, i, got.x[i], want.X[i])
				}
			}
		}
	}
}
