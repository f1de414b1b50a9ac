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

func TestParseCGVariant(t *testing.T) {
	cases := []struct {
		in   string
		want CGVariant
		ok   bool
	}{
		{"", CGClassic, true},
		{"classic", CGClassic, true},
		{"classic-overlap", CGClassicOverlap, true},
		{"overlap", CGClassicOverlap, true},
		{"fused", CGFused, true},
		{"pipelined", CGPipelined, true},
		{"chaotic", CGClassic, false},
	}
	for _, tc := range cases {
		got, err := ParseCGVariant(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("ParseCGVariant(%q) = %v, %v", tc.in, got, err)
		}
	}
	for _, v := range []CGVariant{CGClassic, CGClassicOverlap, CGFused, CGPipelined} {
		back, err := ParseCGVariant(v.String())
		if err != nil || back != v {
			t.Fatalf("round trip %v -> %q -> %v, %v", v, v.String(), back, err)
		}
	}
}

// distSolve runs DistCG on nranks ranks with the given variant and returns
// the assembled solution and rank-0 stats.
func distSolve(t *testing.T, a *sparse.CSR, b []float64, nranks int, m func(lo, hi int) DistPreconditioner, opt Options) ([]float64, Stats) {
	t.Helper()
	n := a.Rows
	l := distmat.NewUniformLayout(n, nranks)
	x := make([]float64, n)
	var st Stats
	_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
		var pre DistPreconditioner
		if m != nil {
			pre = m(lo, hi)
		}
		xl := make([]float64, hi-lo)
		s, err := DistCG(c, op, b[lo:hi], xl, pre, opt, nil)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			st = s
		}
		copy(x[lo:hi], xl)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return x, st
}

// The fused recurrence spans the same Krylov space as classic PCG: on a
// matrix suite with and without preconditioning, iteration counts agree to
// ±1 and both meet the tolerance.
func TestDistCGFusedMatchesClassic(t *testing.T) {
	mats := []struct {
		name string
		a    *sparse.CSR
	}{
		{"poisson2d", matgen.Poisson2D(12, 12)},
		{"poisson3d", matgen.Poisson3D(7, 7, 7)},
		{"cfd", matgen.CFDDiffusion(10, 10, 100, 3)},
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
			opt.Variant = CGFused
			xf, stf := distSolve(t, a, b, 4, pre, opt)
			if !stc.Converged || !stf.Converged {
				t.Fatalf("%s/%s: converged classic=%v fused=%v", tc.name, pname, stc.Converged, stf.Converged)
			}
			if d := stf.Iterations - stc.Iterations; d < -1 || d > 1 {
				t.Fatalf("%s/%s: fused %d iters vs classic %d (want ±1)", tc.name, pname, stf.Iterations, stc.Iterations)
			}
			if stc.RelResidual > opt.Tol || stf.RelResidual > opt.Tol {
				t.Fatalf("%s/%s: residuals above Tol: classic %g fused %g", tc.name, pname, stc.RelResidual, stf.RelResidual)
			}
			bn := vecops.Norm2(b, nil)
			if rc, rf := residual(a, xc, b), residual(a, xf, b); rc > 1e-6*(1+bn) || rf > 1e-6*(1+bn) {
				t.Fatalf("%s/%s: true residuals classic %g fused %g", tc.name, pname, rc, rf)
			}
		}
	}
}

// classic-overlap reorders communication but not arithmetic: the solution
// must be bit-identical to classic, iteration for iteration.
func TestDistCGClassicOverlapBitIdentical(t *testing.T) {
	a := matgen.Poisson3D(8, 8, 8)
	b := matgen.RandomRHS(a.Rows, 23, a.MaxNorm())
	xc, stc := distSolve(t, a, b, 4, nil, Options{Tol: 1e-8})
	xo, sto := distSolve(t, a, b, 4, nil, Options{Tol: 1e-8, Variant: CGClassicOverlap})
	if stc.Iterations != sto.Iterations {
		t.Fatalf("overlap changed iterations: %d vs %d", sto.Iterations, stc.Iterations)
	}
	if stc.RelResidual != sto.RelResidual {
		t.Fatalf("overlap changed residual: %v vs %v", sto.RelResidual, stc.RelResidual)
	}
	for i := range xc {
		if xc[i] != xo[i] {
			t.Fatalf("x[%d]: overlap %v != classic %v (must be bit-identical)", i, xo[i], xc[i])
		}
	}
}

// The acceptance proof of the PR: on a 4-rank partitioned Poisson problem,
// forcing Δ extra iterations costs the classic loop 3Δ collective calls per
// rank and the fused loop Δ, with equal collective-byte growth (24 B/iter
// either way), byte-identical halo traffic growth on every rank pair, and
// identical neighbour sets.
func TestFusedOneCollectivePerIteration(t *testing.T) {
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
			// Tol below attainable accuracy forces exactly MaxIter iterations.
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
	mf1, mf2 := runForced(CGFused, k), runForced(CGFused, k+delta)

	for r := 0; r < nranks; r++ {
		// Collective calls per extra iteration: classic 3, fused 1.
		if got := mc2.CollectiveCalls(r) - mc1.CollectiveCalls(r); got != 3*delta {
			t.Errorf("rank %d: classic grew %d collective calls over %d iterations, want %d", r, got, delta, 3*delta)
		}
		if got := mf2.CollectiveCalls(r) - mf1.CollectiveCalls(r); got != int64(delta) {
			t.Errorf("rank %d: fused grew %d collective calls over %d iterations, want %d", r, got, delta, delta)
		}
		// Reduced payload per iteration is identical: 3×8 B vs 1×24 B.
		cb := mc2.CollectiveBytes(r) - mc1.CollectiveBytes(r)
		fb := mf2.CollectiveBytes(r) - mf1.CollectiveBytes(r)
		if cb != fb || cb != 24*delta {
			t.Errorf("rank %d: collective byte growth classic %d vs fused %d, want both %d", r, cb, fb, 24*delta)
		}
		// Halo traffic per iteration is byte-identical on every pair.
		for dst := 0; dst < nranks; dst++ {
			ch := mc2.PairBytes(r, dst) - mc1.PairBytes(r, dst)
			fh := mf2.PairBytes(r, dst) - mf1.PairBytes(r, dst)
			if ch != fh {
				t.Errorf("pair %d->%d: halo byte growth classic %d vs fused %d", r, dst, ch, fh)
			}
		}
	}
	// The fused variant talks to exactly the same neighbours.
	nc, nf := mc2.NeighborSets(), mf2.NeighborSets()
	for r := range nc {
		if len(nc[r]) != len(nf[r]) {
			t.Fatalf("rank %d: neighbour sets differ: classic %v fused %v", r, nc[r], nf[r])
		}
		for k := range nc[r] {
			if nc[r][k] != nf[r][k] {
				t.Fatalf("rank %d: neighbour sets differ: classic %v fused %v", r, nc[r], nf[r])
			}
		}
	}
}

// The fused loop under the distributed split preconditioner (the FSAI
// application path, with overlap-built G and Gᵀ ops) still matches classic.
func TestDistCGFusedWithSplitPrecond(t *testing.T) {
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
		st1, err := DistCG(c, op, b[lo:hi], x1, nil, Options{Variant: CGFused}, nil)
		if err != nil {
			return err
		}
		gOp := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(g, lo, hi), distmat.WithOverlap())
		gtOp := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(g, lo, hi), distmat.WithOverlap())
		x2 := make([]float64, hi-lo)
		st2, err := DistCG(c, op, b[lo:hi], x2, NewDistSplit(gOp, gtOp), Options{Variant: CGFused}, nil)
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
		t.Fatalf("identity split changed fused iterations: %d vs %d", split.Iterations, plain.Iterations)
	}
}

func TestDistCGFusedZeroRHS(t *testing.T) {
	a := matgen.Poisson2D(6, 6)
	n := a.Rows
	l := distmat.NewUniformLayout(n, 2)
	_, err := simmpi.Run(2, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
		x := make([]float64, hi-lo)
		st, err := DistCG(c, op, make([]float64, hi-lo), x, nil, Options{Variant: CGFused}, nil)
		if err != nil || !st.Converged || st.Iterations != 0 {
			return fmt.Errorf("zero RHS: st=%+v err=%v", st, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistCGFusedBreakdownOnIndefinite(t *testing.T) {
	c := sparse.NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		c.Add(i, i, 1)
	}
	c.Add(3, 3, -2) // make the last diagonal −1
	a := c.ToCSR()
	b := []float64{1, 1, 1, 1}
	l := distmat.NewUniformLayout(4, 2)
	_, err := simmpi.Run(2, testTimeout, func(cm *simmpi.Comm) error {
		lo, hi := l.Range(cm.Rank())
		op := distmat.NewOp(cm, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
		x := make([]float64, hi-lo)
		_, err := DistCG(cm, op, b[lo:hi], x, nil, Options{Variant: CGFused}, nil)
		if err == nil {
			return fmt.Errorf("indefinite matrix accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// With a caller-held Workspace and a prebuilt preconditioner, repeated
// one-rank solves allocate nothing in steady state — the scalar view and
// the k-wide loops it is a view of, whose per-column state (outcome slices,
// active list, recurrence scalars, product scratch) all comes from the
// workspace and whose unmasked kernels walk 0..k−1 without a mask list.
func TestCGWorkspaceZeroAllocs(t *testing.T) {
	a := matgen.Poisson2D(10, 10)
	n := a.Rows
	j, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	b2 := packRHS([][]float64{matgen.RandomRHS(n, 37, a.MaxNorm()), matgen.RandomRHS(n, 38, a.MaxNorm())}, k)
	b1 := make([]float64, n)
	vecops.UnpackColumn(b1, b2, k, 0)
	op, pre := distmat.LocalOp(a), RankLocal(j)
	cases := []struct {
		name  string
		x     []float64
		solve func(x []float64, opt Options) error
	}{
		{"CG", make([]float64, n), func(x []float64, opt Options) error {
			_, err := CG(a, b1, x, j, opt, nil)
			return err
		}},
		{"DistCGBatch k=2 classic", make([]float64, n*k), func(x []float64, opt Options) error {
			_, err := DistCGBatch(nil, op, b2, x, pre, k, opt, nil)
			return err
		}},
		{"DistCGBatch k=2 fused", make([]float64, n*k), func(x []float64, opt Options) error {
			opt.Variant = CGFused
			_, err := DistCGBatch(nil, op, b2, x, pre, k, opt, nil)
			return err
		}},
	}
	for _, tc := range cases {
		opt := Options{Tol: 1e-8, Work: &Workspace{}}
		// Warm-up solve grows the workspace.
		if err := tc.solve(tc.x, opt); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			vecops.Fill(tc.x, 0)
			if err := tc.solve(tc.x, opt); err != nil {
				panic(err)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state %s allocates %v times per solve, want 0", tc.name, allocs)
		}
	}
}

// A workspace reused across different systems (different sizes) still
// produces correct solutions.
func TestWorkspaceReuseAcrossSolves(t *testing.T) {
	ws := &Workspace{}
	for _, dim := range []int{12, 8, 15} {
		a := matgen.Poisson2D(dim, dim)
		b := matgen.RandomRHS(a.Rows, int64(41+dim), a.MaxNorm())
		x := make([]float64, a.Rows)
		st, err := CG(a, b, x, nil, Options{Tol: 1e-9, Work: ws}, nil)
		if err != nil || !st.Converged {
			t.Fatalf("dim %d: st=%+v err=%v", dim, st, err)
		}
		if res := residual(a, x, b); res > 1e-6*(1+vecops.Norm2(b, nil)) {
			t.Fatalf("dim %d: residual %g", dim, res)
		}
	}
}

// Per-rank workspaces survive across repeated distributed solves.
func TestDistWorkspaceReuse(t *testing.T) {
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
			st, err := DistCG(c, op, b[lo:hi], x, nil, Options{Variant: CGFused, Work: works[c.Rank()]}, nil)
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

// Guard the ±1 claim quantitatively: fused convergence histories track the
// classic ones to the end (final residual within 10× on the same iteration
// budget).
func TestFusedResidualHistoryTracksClassic(t *testing.T) {
	a := matgen.CFDDiffusion(8, 8, 50, 2)
	b := matgen.RandomRHS(a.Rows, 47, a.MaxNorm())
	_, stc := distSolve(t, a, b, 4, nil, Options{Tol: 1e-10, RecordResiduals: true})
	_, stf := distSolve(t, a, b, 4, nil, Options{Tol: 1e-10, RecordResiduals: true, Variant: CGFused})
	m := len(stc.Residuals)
	if len(stf.Residuals) < m {
		m = len(stf.Residuals)
	}
	if m == 0 {
		t.Fatal("no residual history recorded")
	}
	for i := 0; i < m; i++ {
		rc, rf := stc.Residuals[i], stf.Residuals[i]
		if rf > 10*rc+1e-14 && rf > 1e-10 {
			t.Fatalf("iteration %d: fused residual %g drifts from classic %g", i+1, rf, rc)
		}
	}
}
