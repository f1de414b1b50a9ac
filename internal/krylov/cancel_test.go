package krylov

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
)

// countingCtx is a deterministic cancellation source: Err reports Canceled
// once it has been polled more than limit times (across all ranks). The
// solvers poll exactly once per rank per iteration, and the collective
// cancellation verdict synchronizes ranks at iteration boundaries, so the
// solve stops after a bounded, repeatable number of iterations.
type countingCtx struct {
	polls *atomic.Int64
	limit int64
}

func (c countingCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c countingCtx) Done() <-chan struct{}       { return nil }
func (c countingCtx) Value(any) any               { return nil }
func (c countingCtx) Err() error {
	if c.polls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

func TestCGCancellation(t *testing.T) {
	const ranks = 3
	a := matgen.Poisson2D(24, 24)
	b := matgen.RandomRHS(a.Rows, 3, a.MaxNorm())

	variants := []CGVariant{CGClassic, CGClassicOverlap, CGFused, CGPipelined}
	for _, v := range variants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			// Reference run: converges, giving the iteration budget the
			// canceled runs must stay under.
			_, full := distSolve(t, a, b, ranks, nil, Options{Tol: 1e-10, Variant: v})
			if !full.Converged {
				t.Fatalf("%v reference run did not converge", v)
			}

			cases := []struct {
				name  string
				limit int64 // countingCtx poll budget; 0 = canceled on entry
			}{
				{"pre-canceled", 0},
				{"mid-solve", int64(ranks * (full.Iterations / 2))},
			}
			for _, tc := range cases {
				ctx := countingCtx{polls: new(atomic.Int64), limit: tc.limit}
				st, err := distSolveErr(t, a, b, ranks, Options{Tol: 1e-10, Variant: v, Ctx: ctx, Trace: true})
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("%s: got error %v, want ErrCanceled", tc.name, err)
				}
				if st.Converged {
					t.Fatalf("%s: canceled solve reported convergence", tc.name)
				}
				if st.Iterations >= full.Iterations {
					t.Fatalf("%s: canceled at iteration %d, reference needed only %d",
						tc.name, st.Iterations, full.Iterations)
				}
				if tc.limit == 0 && st.Iterations != 0 {
					t.Fatalf("%s: pre-canceled solve ran %d iterations", tc.name, st.Iterations)
				}
				if tc.limit > 0 && st.Iterations == 0 {
					t.Fatalf("%s: mid-solve cancellation reported no progress", tc.name)
				}
				// Partial stats flow through the shared finish helper: the
				// trace is attached and consistent with the iteration count.
				if st.Trace == nil {
					t.Fatalf("%s: canceled solve dropped the trace", tc.name)
				}
				if got := len(st.Trace.Iters); got > st.Iterations+1 {
					t.Fatalf("%s: trace has %d records for %d iterations", tc.name, got, st.Iterations)
				}
			}
		})
	}
}

// distSolveErr runs a distributed solve like distSolve but returns the
// solver error (identical on all ranks under collective cancellation)
// instead of failing the test on it.
func distSolveErr(t *testing.T, a *sparse.CSR, b []float64, nranks int, opt Options) (Stats, error) {
	t.Helper()
	l := distmat.NewUniformLayout(a.Rows, nranks)
	var st Stats
	var solveErr error
	_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
		xl := make([]float64, hi-lo)
		s, err := DistCG(c, op, b[lo:hi], xl, nil, opt, nil)
		if c.Rank() == 0 {
			st = s
			solveErr = err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, solveErr
}

func TestSerialCGCancellation(t *testing.T) {
	a := matgen.Poisson2D(20, 20)
	b := matgen.RandomRHS(a.Rows, 5, a.MaxNorm())
	x := make([]float64, a.Rows)
	full, err := CG(a, b, x, nil, Options{Tol: 1e-10}, nil)
	if err != nil || !full.Converged {
		t.Fatalf("reference solve failed: %v", err)
	}

	for _, tc := range []struct {
		name  string
		limit int64
	}{
		{"pre-canceled", 0},
		{"mid-solve", int64(full.Iterations / 2)},
	} {
		ctx := countingCtx{polls: new(atomic.Int64), limit: tc.limit}
		y := make([]float64, a.Rows)
		st, err := CG(a, b, y, nil, Options{Tol: 1e-10, Ctx: ctx}, nil)
		if !errors.Is(err, ErrCanceled) || !strings.Contains(err.Error(), context.Canceled.Error()) {
			t.Fatalf("%s: got error %v, want ErrCanceled carrying the context's cause", tc.name, err)
		}
		if tc.limit == 0 && st.Iterations != 0 {
			t.Fatalf("%s: pre-canceled solve ran %d iterations", tc.name, st.Iterations)
		}
		if tc.limit > 0 && (st.Iterations == 0 || st.Iterations >= full.Iterations) {
			t.Fatalf("%s: canceled at iteration %d of %d", tc.name, st.Iterations, full.Iterations)
		}
	}
}

// A context that never cancels must not change results: the solve with a
// background context converges exactly like the context-free one.
func TestCGContextNoCancelIdentical(t *testing.T) {
	a := matgen.Poisson2D(16, 16)
	b := matgen.RandomRHS(a.Rows, 9, a.MaxNorm())
	for _, v := range []CGVariant{CGClassic, CGFused, CGPipelined} {
		xPlain, stPlain := distSolve(t, a, b, 2, nil, Options{Tol: 1e-9, Variant: v})
		xCtx, stCtx := distSolve(t, a, b, 2, nil, Options{Tol: 1e-9, Variant: v, Ctx: context.Background()})
		if stPlain.Iterations != stCtx.Iterations {
			t.Fatalf("%v: context changed iteration count %d -> %d", v, stPlain.Iterations, stCtx.Iterations)
		}
		for i := range xPlain {
			if xPlain[i] != xCtx[i] {
				t.Fatalf("%v: context changed solution at %d", v, i)
			}
		}
	}
}

// No poll budget short of what a solve needs may report anything but
// ErrCanceled — at width 1 and 2, in FP64 and under the FP64 refinement
// wrapper, whose own check sits between inner solves. The sweep walks every
// cancellation point of each solve: before the first iteration, inside an
// inner solve, and between two refinements (the point where a batched fp32
// solve used to come back with a nil-mapped ErrNoConvergence and x = 0).
func TestWideAndRefinedCancellation(t *testing.T) {
	const ranks = 2
	a := matgen.Poisson2D(10, 10)
	l := distmat.NewUniformLayout(a.Rows, ranks)
	for _, k := range []int{1, 2} {
		cols := make([][]float64, k)
		for c := range cols {
			cols[c] = matgen.RandomRHS(a.Rows, int64(7+c), a.MaxNorm())
		}
		b := packRHS(cols, k)
		for _, prec := range []Precision{FP64, FP32} {
			solve := func(ctx context.Context) (BatchStats, error) {
				var bs BatchStats
				var solveErr error
				_, err := simmpi.Run(ranks, testTimeout, func(c *simmpi.Comm) error {
					lo, hi := l.Range(c.Rank())
					op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
					x := make([]float64, (hi-lo)*k)
					opt := Options{Tol: 1e-10, Ctx: ctx}
					var s BatchStats
					var err error
					if prec == FP32 {
						inner := distmat.NewOpFromParts(op.LZ, op.Plan.Clone())
						inner.SetF32(true)
						s, err = DistCGBatchRefined(c, op, inner, b[lo*k:hi*k], x, nil, k, opt, nil)
					} else {
						s, err = DistCGBatch(c, op, b[lo*k:hi*k], x, nil, k, opt, nil)
					}
					if c.Rank() == 0 {
						bs, solveErr = s, err
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return bs, solveErr
			}
			polls := new(atomic.Int64)
			full, err := solve(countingCtx{polls: polls, limit: 1 << 40})
			if err != nil || !full.allConverged() {
				t.Fatalf("k=%d %v: reference solve: %+v, %v", k, prec, full, err)
			}
			if prec == FP32 && full.Refinements < 2 {
				t.Fatalf("k=%d: reference took %d refinements; the sweep needs a point between two", k, full.Refinements)
			}
			between := false
			for budget := int64(0); budget < polls.Load()/ranks; budget++ {
				bs, err := solve(countingCtx{polls: new(atomic.Int64), limit: ranks * budget})
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("k=%d %v, %d checks allowed: err = %v, want ErrCanceled (stats %+v)", k, prec, budget, err, bs)
				}
				if bs.allConverged() {
					t.Fatalf("k=%d %v, %d checks allowed: canceled solve reports convergence", k, prec, budget)
				}
				between = between || strings.Contains(err.Error(), "during refinement 2")
			}
			if prec == FP32 && !between {
				t.Fatalf("k=%d: no budget canceled the solve between its refinements", k)
			}
		}
	}
}
