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
		if tcp.CommBytes != sim.CommBytes || tcp.CommMessages != sim.CommMessages || tcp.CollectiveCalls != sim.CollectiveCalls {
			t.Fatalf("%v: meters diverge: tcp (%d B, %d msgs, %d calls) vs sim (%d B, %d msgs, %d calls)",
				v, tcp.CommBytes, tcp.CommMessages, tcp.CollectiveCalls, sim.CommBytes, sim.CommMessages, sim.CollectiveCalls)
		}
		if tcp.ModeledSolveTime != sim.ModeledSolveTime {
			t.Fatalf("%v: modeled time diverges: tcp %g vs sim %g", v, tcp.ModeledSolveTime, sim.ModeledSolveTime)
		}
		if tcp.SetupTime != 0 {
			t.Fatalf("%v: prepared tcp solve reports setup time %v", v, tcp.SetupTime)
		}
	}
}

// TestNodeAwareTransportDifferential keeps the per-solve claims the
// node-aware comparison rested on, now that every solve runs the one flat
// schedule: back-to-back solves on one Prepared, across every CG variant and
// both backends, must each meter only their own traffic — the second solve on
// a backend reads the first one's messages, bytes, collectives and modeled
// time exactly, with the same x — and the process mesh must reproduce the
// goroutine world bit for bit.
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
	same := func(r, q *Result) bool {
		if r.Iterations != q.Iterations || r.RelResidual != q.RelResidual ||
			r.CommMessages != q.CommMessages || r.CommBytes != q.CommBytes ||
			r.CollectiveCalls != q.CollectiveCalls || r.CollectiveBytes != q.CollectiveBytes ||
			r.ModeledSolveTime != q.ModeledSolveTime {
			return false
		}
		for i := range r.X {
			if r.X[i] != q.X[i] {
				return false
			}
		}
		return true
	}
	for _, v := range []CGVariant{CGClassic, CGFused, CGPipelined} {
		var sim *Result
		for _, tr := range []string{"", "tcp"} {
			var runs [2]*Result
			for i := range runs {
				runs[i], err = p.Solve(context.Background(), b, SolveOptions{CGVariant: v, Transport: tr})
				if err != nil {
					t.Fatalf("%v %q solve %d: %v", v, tr, i, err)
				}
			}
			first, second := runs[0], runs[1]
			if first.CommMessages <= 0 || first.CommBytes <= 0 {
				t.Fatalf("%v %q: a 4-rank solve metered no halo traffic: %d msgs / %d bytes",
					v, tr, first.CommMessages, first.CommBytes)
			}
			if !same(first, second) {
				t.Fatalf("%v %q: back-to-back solves differ: (%d it, %d msgs, %d B, %d calls, %g s) then (%d it, %d msgs, %d B, %d calls, %g s)",
					v, tr, first.Iterations, first.CommMessages, first.CommBytes, first.CollectiveCalls, first.ModeledSolveTime,
					second.Iterations, second.CommMessages, second.CommBytes, second.CollectiveCalls, second.ModeledSolveTime)
			}
			if tr == "" {
				sim = first
				continue
			}
			if !same(first, sim) {
				t.Fatalf("%v: backends differ: tcp (%d it, %d msgs, %d B, %d calls, %g s) vs sim (%d it, %d msgs, %d B, %d calls, %g s)",
					v, first.Iterations, first.CommMessages, first.CommBytes, first.CollectiveCalls, first.ModeledSolveTime,
					sim.Iterations, sim.CommMessages, sim.CommBytes, sim.CollectiveCalls, sim.ModeledSolveTime)
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
