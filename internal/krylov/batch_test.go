package krylov

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/vecops"
)

// distJacobiBatch is the Jacobi preconditioner over a rank's local block at
// any width, defined here so the differential tests exercise a k-wide
// DistPreconditioner that is not the library's own.
type distJacobiBatch struct{ inv []float64 }

func (j *distJacobiBatch) ApplyBatch(_ *simmpi.Comm, r, z []float64, k int, cols []int, fc *vecops.FlopCounter) {
	n := len(r) / k
	idx := cols
	if idx == nil {
		idx = make([]int, k)
		for c := range idx {
			idx[c] = c
		}
	}
	for i := 0; i < n; i++ {
		for _, c := range idx {
			z[i*k+c] = r[i*k+c] * j.inv[i]
		}
	}
	fc.Add(int64(n) * int64(len(idx)))
}

// oneRankBatch runs DistCGBatch on the one-rank world, where the whole
// matrix is rank 0's block, under serial Jacobi behind the RankLocal adapter
// (applied column by column on a block). A nil inv solves unpreconditioned
// (scaling by an exact 1 leaves every bit of r in z).
func oneRankBatch(t *testing.T, a *sparse.CSR, b, x, inv []float64, k int, opt Options) (BatchStats, error) {
	t.Helper()
	if inv == nil {
		inv = make([]float64, a.Rows)
		vecops.Fill(inv, 1)
	}
	var bs BatchStats
	var solveErr error
	_, err := simmpi.Run(1, testTimeout, func(c *simmpi.Comm) error {
		op := distmat.NewOp(c, distmat.NewUniformLayout(a.Rows, 1), 0, a.Rows, a)
		bs, solveErr = DistCGBatch(c, op, b, x, RankLocal(&Jacobi{InvDiag: inv}), k, opt, nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return bs, solveErr
}

func packRHS(rhs [][]float64, k int) []float64 {
	n := len(rhs[0])
	b := make([]float64, n*k)
	for c, v := range rhs {
		vecops.PackColumn(b, v, k, c)
	}
	return b
}

// The one-rank batched solve is bit-identical to k scalar solves, per
// column, with matching Stats — including when the columns converge at
// different iterations and the mask freezes them one by one.
func TestCGBatchMatchesScalarBitwise(t *testing.T) {
	a := matgen.Poisson2D(12, 11)
	n := a.Rows
	jac, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	rhs := make([][]float64, k)
	for c := range rhs {
		rhs[c] = matgen.RandomRHS(n, int64(c+1), a.MaxNorm())
	}
	opt := Options{Tol: 1e-9}

	want := make([][]float64, k)
	wantSt := make([]Stats, k)
	for c := range rhs {
		want[c] = make([]float64, n)
		st, err := CG(a, rhs[c], want[c], jac, opt, nil)
		if err != nil {
			t.Fatalf("scalar col %d: %v", c, err)
		}
		wantSt[c] = st
	}

	b := packRHS(rhs, k)
	x := make([]float64, n*k)
	bs, err := oneRankBatch(t, a, b, x, jac.InvDiag, k, opt)
	if err != nil {
		t.Fatal(err)
	}
	iterSpread := false
	for c := 0; c < k; c++ {
		got := make([]float64, n)
		vecops.UnpackColumn(got, x, k, c)
		for i := range got {
			if got[i] != want[c][i] {
				t.Fatalf("col %d row %d: batch %v != scalar %v", c, i, got[i], want[c][i])
			}
		}
		cs := bs.Cols[c]
		if cs.Iterations != wantSt[c].Iterations || cs.Converged != wantSt[c].Converged ||
			cs.RelResidual != wantSt[c].RelResidual {
			t.Fatalf("col %d stats: batch %+v != scalar %+v", c, cs, wantSt[c])
		}
		if c > 0 && cs.Iterations != bs.Cols[0].Iterations {
			iterSpread = true
		}
	}
	if !iterSpread {
		t.Log("note: all columns converged at the same iteration; mask freezing untested here")
	}
	if bs.Iterations == 0 || len(bs.Cols) != k {
		t.Fatalf("batch stats: %+v", bs)
	}
}

// A zero column converges immediately with a zero solution while the rest
// of the batch solves normally.
func TestCGBatchZeroColumn(t *testing.T) {
	a := matgen.Poisson2D(6, 6)
	n := a.Rows
	const k = 2
	rhs := [][]float64{make([]float64, n), matgen.RandomRHS(n, 7, a.MaxNorm())}
	b := packRHS(rhs, k)
	x := make([]float64, n*k)
	bs, err := oneRankBatch(t, a, b, x, nil, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bs.Cols[0].Converged || bs.Cols[0].Iterations != 0 {
		t.Fatalf("zero column stats: %+v", bs.Cols[0])
	}
	for i := 0; i < n; i++ {
		if x[i*k] != 0 {
			t.Fatalf("zero column x[%d] = %v", i, x[i*k])
		}
	}
	if !bs.Cols[1].Converged || bs.Cols[1].Iterations == 0 {
		t.Fatalf("nonzero column stats: %+v", bs.Cols[1])
	}
}

// A column whose system is indefinite breaks down and freezes without
// poisoning its batch mates: the SPD column still matches its scalar solve
// bit for bit.
func TestCGBatchBreakdownIsolatesColumn(t *testing.T) {
	// Indefinite diagonal system: CG breaks down at the first dᵀAd.
	coo := sparse.NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		v := 1.0
		if i == 2 {
			v = -1
		}
		coo.Add(i, i, v)
	}
	a := coo.ToCSR()
	const k = 2
	bad := []float64{0, 0, 1, 0}
	good := []float64{1, 2, 0, 3} // zero where the bad diagonal sits
	want := make([]float64, 4)
	wantSt, err := CG(a, good, want, nil, Options{}, nil)
	if err != nil {
		t.Fatalf("scalar good column: %v", err)
	}

	b := packRHS([][]float64{bad, good}, k)
	x := make([]float64, 4*k)
	bs, err := oneRankBatch(t, a, b, x, nil, k, Options{MaxIter: 50})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if !bs.Broken[0] || bs.Cols[0].Converged {
		t.Fatalf("bad column not marked broken: broken=%v stats=%+v", bs.Broken[0], bs.Cols[0])
	}
	if !bs.Cols[1].Converged || bs.Cols[1].Iterations != wantSt.Iterations {
		t.Fatalf("good column stats: %+v, want %+v", bs.Cols[1], wantSt)
	}
	got := make([]float64, 4)
	vecops.UnpackColumn(got, x, k, 1)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("good column row %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestBatchVariantRejected(t *testing.T) {
	a := matgen.Poisson2D(4, 4)
	b := make([]float64, a.Rows)
	x := make([]float64, a.Rows)
	for _, v := range []CGVariant{CGPipelined} {
		_, err := oneRankBatch(t, a, b, x, nil, 1, Options{Variant: v})
		if !errors.Is(err, ErrBatchVariant) {
			t.Fatalf("variant %s: err = %v, want ErrBatchVariant", v, err)
		}
	}
	if _, err := oneRankBatch(t, a, b, x, nil, 0, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestCGBatchCancellation(t *testing.T) {
	a := matgen.Poisson2D(10, 10)
	n := a.Rows
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := packRHS([][]float64{matgen.RandomRHS(n, 1, a.MaxNorm())}, 1)
	x := make([]float64, n)
	bs, err := oneRankBatch(t, a, b, x, nil, 1, Options{Ctx: ctx})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if bs.Cols[0].Converged {
		t.Fatalf("canceled column marked converged: %+v", bs.Cols[0])
	}
}

// solveMetered runs solve on rank c and returns the meter counts of the
// solve alone. A rank meters only itself, so its own snapshots bracket the
// solve exactly; a Reset between two barriers would race a peer that is
// already metering the second one.
func solveMetered(c *simmpi.Comm, solve func() error) (simmpi.Snapshot, error) {
	before := c.Meter().RankSnapshot(c.Rank())
	err := solve()
	return c.Meter().RankSnapshot(c.Rank()).Sub(before), err
}

// sumPhases adds up the ranks' solve-phase counts that the tests compare.
func sumPhases(phase []simmpi.Snapshot) (s simmpi.Snapshot) {
	for _, p := range phase {
		s.P2PBytes += p.P2PBytes
		s.P2PMessages += p.P2PMessages
		s.CollectiveCalls += p.CollectiveCalls
	}
	return s
}

// distBatchSolve runs DistCGBatch on nranks ranks and returns the
// assembled interleaved solution, the stats, and the solve's meter counts
// summed over ranks.
func distBatchSolve(t *testing.T, a *sparse.CSR, b []float64, k, nranks int, opt Options) ([]float64, BatchStats, simmpi.Snapshot) {
	t.Helper()
	n := a.Rows
	l := distmat.NewUniformLayout(n, nranks)
	x := make([]float64, n*k)
	var bst BatchStats
	jac, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	phase := make([]simmpi.Snapshot, nranks)
	_, err = simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
		xl := make([]float64, (hi-lo)*k)
		var bs BatchStats
		var err error
		phase[c.Rank()], err = solveMetered(c, func() error {
			bs, err = DistCGBatch(c, op, b[lo*k:hi*k], xl, &distJacobiBatch{inv: jac.InvDiag[lo:hi]}, k, opt, nil)
			return err
		})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			bst = bs
		}
		copy(x[lo*k:hi*k], xl)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return x, bst, sumPhases(phase)
}

// The distributed batch is bit-identical per column to scalar DistCG for
// both supported variants, and — with duplicated right-hand sides — its
// communication bill equals ONE scalar solve in messages and collective
// calls and exactly k scalar solves in halo bytes. That is the structural
// claim of the batched path, pinned on the meter.
func TestDistCGBatchMeteredAndBitwise(t *testing.T) {
	a := matgen.Poisson2D(14, 13)
	n := a.Rows
	const nranks, k = 3, 4
	l := distmat.NewUniformLayout(n, nranks)
	jac, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	rhs := matgen.RandomRHS(n, 3, a.MaxNorm())

	for _, variant := range []CGVariant{CGClassic, CGFused} {
		opt := Options{Tol: 1e-9, Variant: variant}

		// Scalar reference solve of the one RHS, metered.
		want := make([]float64, n)
		var wantSt Stats
		phase := make([]simmpi.Snapshot, nranks)
		_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
			lo, hi := l.Range(c.Rank())
			op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
			xl := make([]float64, hi-lo)
			var st Stats
			var err error
			phase[c.Rank()], err = solveMetered(c, func() error {
				st, err = DistCG(c, op, rhs[lo:hi], xl, &distJacobi{inv: jac.InvDiag[lo:hi]}, opt, nil)
				return err
			})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				wantSt = st
			}
			copy(want[lo:hi], xl)
			return nil
		})
		if err != nil {
			t.Fatalf("%s scalar: %v", variant, err)
		}
		solo := sumPhases(phase)

		// Batched solve of the same RHS duplicated k times.
		dup := make([][]float64, k)
		for c := range dup {
			dup[c] = rhs
		}
		x, bst, batch := distBatchSolve(t, a, packRHS(dup, k), k, nranks, opt)

		for c := 0; c < k; c++ {
			got := make([]float64, n)
			vecops.UnpackColumn(got, x, k, c)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s col %d row %d: batch %v != scalar %v", variant, c, i, got[i], want[i])
				}
			}
			cs := bst.Cols[c]
			if cs.Iterations != wantSt.Iterations || cs.RelResidual != wantSt.RelResidual || !cs.Converged {
				t.Fatalf("%s col %d stats: %+v, want %+v", variant, c, cs, wantSt)
			}
		}
		if batch.CollectiveCalls != solo.CollectiveCalls {
			t.Fatalf("%s collective calls: batch %d != solo %d (should be equal — k-wide reductions)",
				variant, batch.CollectiveCalls, solo.CollectiveCalls)
		}
		if batch.P2PMessages != solo.P2PMessages {
			t.Fatalf("%s halo messages: batch %d != solo %d (should be equal — one k-wide message per neighbour)",
				variant, batch.P2PMessages, solo.P2PMessages)
		}
		if batch.P2PBytes != int64(k)*solo.P2PBytes {
			t.Fatalf("%s halo bytes: batch %d != %d×solo (%d)", variant, batch.P2PBytes, k, solo.P2PBytes)
		}
		if solo.P2PMessages == 0 {
			t.Fatalf("%s: degenerate partition, no halo traffic metered", variant)
		}
	}
}

// Distinct right-hand sides: each column of the distributed batch matches
// its own scalar solve bitwise, for both variants, even though the columns
// freeze at different iterations.
func TestDistCGBatchDistinctRHSBitwise(t *testing.T) {
	a := matgen.ThermalAniso(12, 12, 1, 100)
	n := a.Rows
	const nranks, k = 2, 3
	l := distmat.NewUniformLayout(n, nranks)
	jac, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([][]float64, k)
	for c := range rhs {
		rhs[c] = matgen.RandomRHS(n, int64(10+c), a.MaxNorm())
	}

	for _, variant := range []CGVariant{CGClassic, CGFused} {
		opt := Options{Tol: 1e-8, Variant: variant}
		want := make([][]float64, k)
		wantSt := make([]Stats, k)
		for ci := range rhs {
			want[ci] = make([]float64, n)
			_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
				lo, hi := l.Range(c.Rank())
				op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
				xl := make([]float64, hi-lo)
				st, err := DistCG(c, op, rhs[ci][lo:hi], xl, &distJacobi{inv: jac.InvDiag[lo:hi]}, opt, nil)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					wantSt[ci] = st
				}
				copy(want[ci][lo:hi], xl)
				return nil
			})
			if err != nil {
				t.Fatalf("%s scalar col %d: %v", variant, ci, err)
			}
		}

		x, bst, _ := distBatchSolve(t, a, packRHS(rhs, k), k, nranks, opt)
		for c := 0; c < k; c++ {
			got := make([]float64, n)
			vecops.UnpackColumn(got, x, k, c)
			for i := range got {
				if got[i] != want[c][i] {
					t.Fatalf("%s col %d row %d: batch %v != scalar %v", variant, c, i, got[i], want[c][i])
				}
			}
			if bst.Cols[c].Iterations != wantSt[c].Iterations {
				t.Fatalf("%s col %d iterations: %d != %d", variant, c, bst.Cols[c].Iterations, wantSt[c].Iterations)
			}
		}
	}
}

// wideSolve runs one solve of width k on a world of ranks (0: the nil-Comm
// one-rank world) and returns the assembled interleaved solution, rank 0's
// outcome and every rank's metered traffic across the solve, snapshotted on
// the rank's own goroutine. Width 1 goes through the scalar views (DistCG,
// DistCGRefined — with Options.Trace on, so the outcome carries rank 0's
// trace), wider blocks through the batch entry points; FP32 runs the
// refinement wrapper over a float32 twin of A.
func wideSolve(t *testing.T, a *sparse.CSR, b []float64, k, ranks int, prec Precision, opt Options) ([]float64, BatchStats, []simmpi.Snapshot) {
	t.Helper()
	n := a.Rows
	jac, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n*k)
	var out BatchStats
	rank := func(c *simmpi.Comm, op *distmat.Op, lo, hi int) (BatchStats, error) {
		m := &distJacobi{inv: jac.InvDiag[lo:hi]}
		bl, xl := b[lo*k:hi*k], x[lo*k:hi*k]
		var inner *distmat.Op
		if prec == FP32 {
			inner = distmat.NewOpFromParts(op.LZ, op.Plan.Clone())
			inner.SetF32(true)
		}
		switch {
		case k == 1 && inner != nil:
			return oneColumn(DistCGRefined(c, op, inner, bl, xl, m, opt, nil))
		case k == 1:
			return oneColumn(DistCG(c, op, bl, xl, m, opt, nil))
		case inner != nil:
			return DistCGBatchRefined(c, op, inner, bl, xl, m, k, opt, nil)
		}
		return DistCGBatch(c, op, bl, xl, m, k, opt, nil)
	}
	if ranks == 0 {
		if out, err = rank(nil, distmat.LocalOp(a), 0, n); err != nil {
			t.Fatal(err)
		}
		return x, out, nil
	}
	l := distmat.NewUniformLayout(n, ranks)
	traffic := make([]simmpi.Snapshot, ranks)
	_, err = simmpi.Run(ranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
		pre := c.Meter().RankSnapshot(c.Rank())
		bs, err := rank(c, op, lo, hi)
		traffic[c.Rank()] = c.Meter().RankSnapshot(c.Rank()).Sub(pre)
		if c.Rank() == 0 {
			out = bs
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return x, out, traffic
}

// The oracle that licenses having no scalar CG loop: on every world, in
// both precisions and for every variant a scalar solve can ask for, each
// column of a width-3 solve IS the width-1 solve of that column — solution
// bits, iterations, residual bits, refinements, Broken — and the block pays
// the width-1 solve's collective calls and halo messages with exactly 3×
// its halo bytes. The three columns carry the same right-hand side: a
// refined block shares one inner tolerance (the tightest column's), so only
// equal columns repeat the width-1 refinement step for step — and only
// columns that stop together let the meters be compared. The width-1
// solves run traced, and the trace conserves the rank's metered traffic
// with one record per iteration (per refinement under FP32), as
// trace_test.go pins for the scalar entry points.
func TestWideColumnsAreWidth1Solves(t *testing.T) {
	a := matgen.CFDDiffusion(12, 11, 50, 2) // coefficients float32 cannot hold
	n := a.Rows
	const k = 3
	rhs := matgen.RandomRHS(n, 3, a.MaxNorm())
	b3 := packRHS([][]float64{rhs, rhs, rhs}, k)
	for _, ranks := range []int{0, 1, 2, 4} {
		for _, prec := range []Precision{FP64, FP32} {
			for _, v := range []CGVariant{CGClassic, CGFused} {
				name := fmt.Sprintf("ranks=%d/%v/%v", ranks, prec, v)
				// Tight enough that the float32 inner solves need a second
				// refinement.
				opt := Options{Tol: 1e-11, Variant: v, Trace: true}
				x1, one, traffic1 := wideSolve(t, a, rhs, 1, ranks, prec, opt)
				if !one.allConverged() || (prec == FP32) != (one.Refinements > 1) {
					t.Fatalf("%s: width-1 outcome %+v", name, one)
				}
				tr := one.Trace
				if tr == nil || (prec == FP64 && len(tr.Iters) != one.Iterations) || len(tr.Refines) != one.Refinements {
					t.Fatalf("%s: width-1 trace %+v for %+v", name, tr, one)
				}
				if ranks > 0 {
					got, want := tr.Total(), traffic1[0]
					if got != (CommDelta{CollectiveCalls: want.CollectiveCalls, CollectiveBytes: want.CollectiveBytes,
						P2PBytes: want.P2PBytes, P2PMessages: want.P2PMessages}) {
						t.Fatalf("%s: width-1 trace total %+v != rank 0 meter %+v", name, got, want)
					}
				}

				opt.Trace = false
				x3, wide, traffic3 := wideSolve(t, a, b3, k, ranks, prec, opt)
				if wide.Refinements != one.Refinements || wide.Iterations != one.Iterations {
					t.Fatalf("%s: block ran %d refinements / %d iterations, width 1 %d / %d",
						name, wide.Refinements, wide.Iterations, one.Refinements, one.Iterations)
				}
				for c := 0; c < k; c++ {
					for i := 0; i < n; i++ {
						if x3[i*k+c] != x1[i] {
							t.Fatalf("%s col %d row %d: block %v != width 1 %v", name, c, i, x3[i*k+c], x1[i])
						}
					}
					got, want := wide.Cols[c], one.Cols[0]
					if got.Iterations != want.Iterations || got.RelResidual != want.RelResidual ||
						got.Converged != want.Converged || wide.Broken[c] != one.Broken[0] {
						t.Fatalf("%s col %d: %+v broken=%v, width 1 %+v broken=%v", name, c, got, wide.Broken[c], want, one.Broken[0])
					}
				}
				for r := range traffic3 {
					g, w := traffic3[r], traffic1[r]
					if g.CollectiveCalls != w.CollectiveCalls || g.P2PMessages != w.P2PMessages || g.P2PBytes != k*w.P2PBytes {
						t.Fatalf("%s rank %d: block traffic %+v, width 1 %+v (want equal calls and messages, %d× bytes)", name, r, g, w, k)
					}
				}
			}
		}
	}
}
