package krylov

import (
	"errors"
	"fmt"
	"testing"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/vecops"
)

// Satellite 2, part 1: the pipelined recurrence spans the same Krylov space
// as classic PCG. Across the four problem classes and both cheap
// preconditioners, iteration counts agree to ±2 and both meet the
// tolerance.
//
// The CFD instance here is milder than the fused test's (jump 10 instead of
// 100): the pipelined recursions for u ≈ M·r and w ≈ A·u accumulate rounding
// amplified by the condition number, and on near-degenerate unpreconditioned
// instances (iteration count ≈ n) the drift exceeds ±2 — the regime the
// pipelined-CG rounding analyses flag, and exactly where one would use a
// preconditioner (Jacobi restores ±0 drift even on the jump-100 instance;
// see DESIGN.md §4d).
func TestDistCGPipelinedMatchesClassic(t *testing.T) {
	mats := []struct {
		name string
		a    *sparse.CSR
	}{
		{"poisson2d", matgen.Poisson2D(12, 12)},
		{"poisson3d", matgen.Poisson3D(7, 7, 7)},
		{"cfd", matgen.CFDDiffusion(10, 10, 10, 2)},
		{"aniso", matgen.ThermalAniso(12, 12, 1, 100)},
	}
	for _, tc := range mats {
		a := tc.a
		b := matgen.RandomRHS(a.Rows, 21, a.MaxNorm())
		j, err := NewJacobi(a)
		if err != nil {
			t.Fatal(err)
		}
		precs := map[string]func(lo, hi int) DistPreconditioner{
			"noprec": nil,
			"jacobi": func(lo, hi int) DistPreconditioner { return &distJacobi{inv: j.InvDiag[lo:hi]} },
		}
		for pname, pre := range precs {
			opt := Options{Tol: 1e-8}
			xc, stc := distSolve(t, a, b, 4, pre, opt)
			opt.Variant = CGPipelined
			xp, stp := distSolve(t, a, b, 4, pre, opt)
			if !stc.Converged || !stp.Converged {
				t.Fatalf("%s/%s: converged classic=%v pipelined=%v", tc.name, pname, stc.Converged, stp.Converged)
			}
			if d := stp.Iterations - stc.Iterations; d < -2 || d > 2 {
				t.Fatalf("%s/%s: pipelined %d iters vs classic %d (want ±2)", tc.name, pname, stp.Iterations, stc.Iterations)
			}
			if stc.RelResidual > opt.Tol || stp.RelResidual > opt.Tol {
				t.Fatalf("%s/%s: residuals above Tol: classic %g pipelined %g", tc.name, pname, stc.RelResidual, stp.RelResidual)
			}
			bn := vecops.Norm2(b, nil)
			if rc, rp := residual(a, xc, b), residual(a, xp, b); rc > 1e-6*(1+bn) || rp > 1e-6*(1+bn) {
				t.Fatalf("%s/%s: true residuals classic %g pipelined %g", tc.name, pname, rc, rp)
			}
		}
	}
}

// Backs the comment above: on the near-degenerate jump-100 CFD instance the
// unpreconditioned drift exceeds ±2, but Jacobi — the cheapest possible
// preconditioner — already brings pipelined back within the bound.
func TestDistCGPipelinedHardCFDWithJacobi(t *testing.T) {
	a := matgen.CFDDiffusion(10, 10, 100, 3)
	b := matgen.RandomRHS(a.Rows, 21, a.MaxNorm())
	j, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	pre := func(lo, hi int) DistPreconditioner { return &distJacobi{inv: j.InvDiag[lo:hi]} }
	_, stc := distSolve(t, a, b, 4, pre, Options{Tol: 1e-8})
	_, stp := distSolve(t, a, b, 4, pre, Options{Tol: 1e-8, Variant: CGPipelined})
	if !stc.Converged || !stp.Converged {
		t.Fatalf("converged classic=%v pipelined=%v", stc.Converged, stp.Converged)
	}
	if d := stp.Iterations - stc.Iterations; d < -2 || d > 2 {
		t.Fatalf("hard CFD + jacobi: pipelined %d iters vs classic %d (want ±2)", stp.Iterations, stc.Iterations)
	}
}

// Satellite 2, part 1 continued: the pipelined loop under the distributed
// split preconditioner (the FSAI application path) matches the
// unpreconditioned run when G is the identity.
func TestDistCGPipelinedWithSplitPrecond(t *testing.T) {
	a := matgen.Poisson2D(12, 12)
	n := a.Rows
	id := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		id.Add(i, i, 1)
	}
	g := id.ToCSR()
	b := matgen.RandomRHS(n, 31, a.MaxNorm())
	const nranks = 4
	l := distmat.NewUniformLayout(n, nranks)
	var plain, split Stats
	_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
		x1 := make([]float64, hi-lo)
		st1, err := DistCG(c, op, b[lo:hi], x1, nil, Options{Variant: CGPipelined}, nil)
		if err != nil {
			return err
		}
		gOp := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(g, lo, hi))
		gtOp := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(g, lo, hi))
		x2 := make([]float64, hi-lo)
		st2, err := DistCG(c, op, b[lo:hi], x2, NewDistSplit(gOp, gtOp), Options{Variant: CGPipelined}, nil)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			plain, split = st1, st2
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Iterations != split.Iterations {
		t.Fatalf("identity split changed pipelined iterations: %d vs %d", split.Iterations, plain.Iterations)
	}
}

// Satellite 2, part 2 — the metered acceptance proof: on a 4-rank
// partitioned Poisson problem, forcing Δ extra iterations costs the
// pipelined loop exactly Δ collective calls per rank (fused's 1/iteration,
// against classic's 3), with the same 24 B/iteration reduced payload,
// byte-identical halo traffic growth on every rank pair, and identical
// neighbour sets — the nonblocking schedule moves no extra bytes.
func TestPipelinedOneCollectivePerIteration(t *testing.T) {
	a := matgen.Poisson3D(12, 12, 12)
	n := a.Rows
	b := matgen.RandomRHS(n, 29, a.MaxNorm())
	const nranks = 4
	l := distmat.NewUniformLayout(n, nranks)

	runForced := func(variant CGVariant, iters int) *simmpi.Meter {
		t.Helper()
		w, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
			lo, hi := l.Range(c.Rank())
			op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
			x := make([]float64, hi-lo)
			_, err := DistCG(c, op, b[lo:hi], x, nil, Options{Tol: 1e-300, MaxIter: iters, Variant: variant}, nil)
			if !errors.Is(err, ErrNoConvergence) {
				return fmt.Errorf("want forced non-convergence, got %v", err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Meter()
	}

	const k, delta = 6, 5
	mc1, mc2 := runForced(CGClassic, k), runForced(CGClassic, k+delta)
	mp1, mp2 := runForced(CGPipelined, k), runForced(CGPipelined, k+delta)

	for r := 0; r < nranks; r++ {
		if got := mp2.CollectiveCalls(r) - mp1.CollectiveCalls(r); got != int64(delta) {
			t.Errorf("rank %d: pipelined grew %d collective calls over %d iterations, want %d", r, got, delta, delta)
		}
		cb := mc2.CollectiveBytes(r) - mc1.CollectiveBytes(r)
		pb := mp2.CollectiveBytes(r) - mp1.CollectiveBytes(r)
		if cb != pb || pb != 24*delta {
			t.Errorf("rank %d: collective byte growth classic %d vs pipelined %d, want both %d", r, cb, pb, 24*delta)
		}
		for dst := 0; dst < nranks; dst++ {
			ch := mc2.PairBytes(r, dst) - mc1.PairBytes(r, dst)
			ph := mp2.PairBytes(r, dst) - mp1.PairBytes(r, dst)
			if ch != ph {
				t.Errorf("pair %d->%d: halo byte growth classic %d vs pipelined %d", r, dst, ch, ph)
			}
		}
	}
	nc, np := mc2.NeighborSets(), mp2.NeighborSets()
	for r := range nc {
		if len(nc[r]) != len(np[r]) {
			t.Fatalf("rank %d: neighbour sets differ: classic %v pipelined %v", r, nc[r], np[r])
		}
		for k := range nc[r] {
			if nc[r][k] != np[r][k] {
				t.Fatalf("rank %d: neighbour sets differ: classic %v pipelined %v", r, nc[r], np[r])
			}
		}
	}
}

// The pipelined residual recurrence is known to round worse than fused's
// (hence the ±2 iteration claim instead of ±1); the history must still
// track classic within a modest constant factor all the way down.
func TestPipelinedResidualHistoryTracksClassic(t *testing.T) {
	a := matgen.CFDDiffusion(8, 8, 50, 2)
	b := matgen.RandomRHS(a.Rows, 47, a.MaxNorm())
	_, stc := distSolve(t, a, b, 4, nil, Options{Tol: 1e-10, RecordResiduals: true})
	_, stp := distSolve(t, a, b, 4, nil, Options{Tol: 1e-10, RecordResiduals: true, Variant: CGPipelined})
	m := len(stc.Residuals)
	if len(stp.Residuals) < m {
		m = len(stp.Residuals)
	}
	if m == 0 {
		t.Fatal("no residual history recorded")
	}
	for i := 0; i < m; i++ {
		rc, rp := stc.Residuals[i], stp.Residuals[i]
		if rp > 50*rc+1e-14 && rp > 1e-10 {
			t.Fatalf("iteration %d: pipelined residual %g drifts from classic %g", i+1, rp, rc)
		}
	}
}

func TestDistCGPipelinedZeroRHS(t *testing.T) {
	a := matgen.Poisson2D(6, 6)
	n := a.Rows
	l := distmat.NewUniformLayout(n, 2)
	_, err := simmpi.Run(2, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
		x := make([]float64, hi-lo)
		st, err := DistCG(c, op, make([]float64, hi-lo), x, nil, Options{Variant: CGPipelined}, nil)
		if err != nil || !st.Converged || st.Iterations != 0 {
			return fmt.Errorf("zero RHS: st=%+v err=%v", st, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistCGPipelinedBreakdownOnIndefinite(t *testing.T) {
	c := sparse.NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		c.Add(i, i, 1)
	}
	c.Add(3, 3, -2)
	a := c.ToCSR()
	b := []float64{1, 1, 1, 1}
	l := distmat.NewUniformLayout(4, 2)
	_, err := simmpi.Run(2, testTimeout, func(cm *simmpi.Comm) error {
		lo, hi := l.Range(cm.Rank())
		op := distmat.NewOp(cm, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
		x := make([]float64, hi-lo)
		_, err := DistCG(cm, op, b[lo:hi], x, nil, Options{Variant: CGPipelined}, nil)
		if err == nil {
			return fmt.Errorf("indefinite matrix accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Per-rank workspaces reused across repeated pipelined solves keep the
// iteration count stable (no stale recurrence vectors leak between solves).
func TestDistCGPipelinedWorkspaceReuse(t *testing.T) {
	a := matgen.Poisson2D(10, 10)
	n := a.Rows
	b := matgen.RandomRHS(n, 43, a.MaxNorm())
	const nranks = 3
	l := distmat.NewUniformLayout(n, nranks)
	works := make([]*Workspace, nranks)
	for i := range works {
		works[i] = &Workspace{}
	}
	var iters [2]int
	for round := 0; round < 2; round++ {
		rr := round
		_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
			lo, hi := l.Range(c.Rank())
			op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
			x := make([]float64, hi-lo)
			st, err := DistCG(c, op, b[lo:hi], x, nil, Options{Variant: CGPipelined, Work: works[c.Rank()]}, nil)
			if c.Rank() == 0 {
				iters[rr] = st.Iterations
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if iters[0] != iters[1] || iters[0] == 0 {
		t.Fatalf("workspace reuse changed iterations: %v", iters)
	}
}

// Satellite: Options.ResidualReplaceEvery. On the near-degenerate
// unpreconditioned CFD instance the pipelined recurrence residual detaches
// from the true one: convergence drifts far past classic's and the true
// residual stagnates an order of magnitude above classic's attainable
// level. Periodic replacement (r = b − A·x every k iterations) tightens the
// iteration-drift band and restores classic-level attainable accuracy. (It
// cannot restore the ±2 band on its own — preconditioning does that, see
// TestDistCGPipelinedHardCFDWithJacobi; replacement is the fallback when no
// preconditioner is in play.)
func TestPipelinedResidualReplacementArrestsDrift(t *testing.T) {
	a := matgen.CFDDiffusion(10, 10, 1e5, 3)
	b := matgen.RandomRHS(a.Rows, 21, a.MaxNorm())
	_, stc := distSolve(t, a, b, 4, nil, Options{Tol: 1e-8})
	xp, stp := distSolve(t, a, b, 4, nil, Options{Tol: 1e-8, Variant: CGPipelined})
	xr, str := distSolve(t, a, b, 4, nil, Options{Tol: 1e-8, Variant: CGPipelined, ResidualReplaceEvery: 5})
	if !stc.Converged || !stp.Converged || !str.Converged {
		t.Fatalf("converged classic=%v plain=%v rr=%v", stc.Converged, stp.Converged, str.Converged)
	}
	plainDrift := stp.Iterations - stc.Iterations
	rrDrift := str.Iterations - stc.Iterations
	if plainDrift <= 2 {
		t.Fatalf("instance too mild: plain pipelined drift only %d", plainDrift)
	}
	if rrDrift >= plainDrift {
		t.Fatalf("replacement did not tighten the drift band: %d vs plain %d", rrDrift, plainDrift)
	}
	// Attainable accuracy: the replaced run's true residual must sit well
	// below the plain run's stagnation level (5x is conservative; measured
	// ~14x, back at classic's level).
	rp, rr := residual(a, xp, b), residual(a, xr, b)
	if rr > rp/5 {
		t.Fatalf("replacement did not restore attainable accuracy: true residual %g vs plain %g", rr, rp)
	}
}

// Replacement's metered price: zero extra collectives, and per rank pair
// exactly 4 extra halo exchanges per replacement event (A·x, A·u, A·p, A·q)
// — floor(MaxIter/k) events in a forced run.
func TestPipelinedResidualReplacementMeter(t *testing.T) {
	a := matgen.Poisson2D(16, 16)
	n := a.Rows
	b := matgen.RandomRHS(n, 29, a.MaxNorm())
	const nranks = 4
	l := distmat.NewUniformLayout(n, nranks)
	runForced := func(iters, rr int) *simmpi.Meter {
		t.Helper()
		w, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
			lo, hi := l.Range(c.Rank())
			op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
			x := make([]float64, hi-lo)
			_, err := DistCG(c, op, b[lo:hi], x, nil,
				Options{Tol: 1e-300, MaxIter: iters, Variant: CGPipelined, ResidualReplaceEvery: rr}, nil)
			if !errors.Is(err, ErrNoConvergence) {
				return fmt.Errorf("want forced non-convergence, got %v", err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Meter()
	}

	const m1, m2, k = 6, 12, 5
	plain1, plain2 := runForced(m1, 0), runForced(m2, 0)
	repl := runForced(m2, k)
	events := int64(m2 / k)
	for r := 0; r < nranks; r++ {
		if pc, rc := plain2.CollectiveCalls(r), repl.CollectiveCalls(r); pc != rc {
			t.Errorf("rank %d: replacement changed collective calls %d -> %d", r, pc, rc)
		}
		if pb, rb := plain2.CollectiveBytes(r), repl.CollectiveBytes(r); pb != rb {
			t.Errorf("rank %d: replacement changed collective bytes %d -> %d", r, pb, rb)
		}
		for dst := 0; dst < nranks; dst++ {
			// One halo exchange per pass: the per-iteration pair growth of
			// two plain runs is one exchange's bytes for this pair.
			perExchange := (plain2.PairBytes(r, dst) - plain1.PairBytes(r, dst)) / int64(m2-m1)
			got := repl.PairBytes(r, dst) - plain2.PairBytes(r, dst)
			if want := events * 4 * perExchange; got != want {
				t.Errorf("pair %d->%d: replacement halo growth %d bytes, want %d (%d events x 4 exchanges x %d B)",
					r, dst, got, want, events, perExchange)
			}
		}
	}
}

// The pipelined loop reduces through distmat.SumAcross like the others, so
// a nil Comm is its one-rank world too: the same bits and iterations as the
// solve on a world of one rank.
func TestDistCGPipelinedOnNilComm(t *testing.T) {
	a := matgen.Poisson2D(12, 12)
	b := matgen.RandomRHS(a.Rows, 9, a.MaxNorm())
	opt := Options{Variant: CGPipelined}
	x := make([]float64, a.Rows)
	st, err := DistCG(nil, distmat.LocalOp(a), b, x, nil, opt, nil)
	if err != nil || !st.Converged {
		t.Fatalf("nil Comm: %+v, %v", st, err)
	}
	want, stWorld := distSolve(t, a, b, 1, nil, opt)
	if st.Iterations != stWorld.Iterations {
		t.Fatalf("nil Comm: %d iterations, one-rank world %d", st.Iterations, stWorld.Iterations)
	}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("x[%d]: nil Comm %v, one-rank world %v", i, x[i], want[i])
		}
	}
}
