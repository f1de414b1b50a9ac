package fsai

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/testsets"
)

const testTimeout = 20 * time.Second

func TestLowerPatternProperties(t *testing.T) {
	a := matgen.Poisson2D(6, 6)
	s := LowerPattern(a)
	for i := 0; i < s.Rows; i++ {
		cols := s.Row(i)
		if len(cols) == 0 || cols[len(cols)-1] != i {
			t.Fatalf("row %d does not end at diagonal: %v", i, cols)
		}
		for _, c := range cols {
			if c > i {
				t.Fatalf("row %d has upper entry %d", i, c)
			}
		}
	}
}

func TestPowerPatternLevels(t *testing.T) {
	a := matgen.Poisson2D(6, 6)
	p1 := PowerPatternWorkers(a, 1, 0, 0)
	p2 := PowerPatternWorkers(a, 2, 0, 0)
	if !p1.Equal(LowerPattern(a)) {
		t.Fatal("level 1 differs from LowerPattern")
	}
	if !p2.Contains(p1) || p2.NNZ() <= p1.NNZ() {
		t.Fatalf("level 2 pattern (%d) should strictly contain level 1 (%d)", p2.NNZ(), p1.NNZ())
	}
	// Thresholding shrinks the pattern.
	pt := PowerPatternWorkers(matgen.CFDDiffusion(8, 8, 1000, 1), 2, 0.3, 0)
	pf := PowerPatternWorkers(matgen.CFDDiffusion(8, 8, 1000, 1), 2, 0, 0)
	if pt.NNZ() >= pf.NNZ() {
		t.Fatalf("thresholded pattern %d not smaller than full %d", pt.NNZ(), pf.NNZ())
	}
}

// gagt computes diag(G·A·Gᵀ) densely for verification.
func diagGAGT(a, g *sparse.CSR) []float64 {
	n := a.Rows
	out := make([]float64, n)
	w := make([]float64, n)
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := range row {
			row[k] = 0
		}
		cols, vals := g.Row(i)
		for k, c := range cols {
			row[c] = vals[k]
		}
		a.MulVec(row, w)
		s := 0.0
		for k, c := range cols {
			s += vals[k] * w[c]
		}
		_ = cols
		out[i] = s
	}
	return out
}

func TestBuildNormalization(t *testing.T) {
	// diag(G·A·Gᵀ) must be 1 for the exact minimizer normalization.
	a := matgen.Poisson2D(5, 5)
	g, err := Build(a, LowerPattern(a))
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range diagGAGT(a, g) {
		if math.Abs(d-1) > 1e-10 {
			t.Fatalf("diag(GAGᵀ)[%d] = %v, want 1", i, d)
		}
	}
}

func TestBuildFullPatternGivesExactInverse(t *testing.T) {
	// With the full lower-triangular pattern of a dense matrix, G is the
	// exact inverse Cholesky factor: GᵀG = A⁻¹.
	rng := rand.New(rand.NewSource(8))
	n := 12
	// Dense SPD matrix.
	b := make([]float64, n*n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += b[i*n+k] * b[j*n+k]
			}
			if i == j {
				s += float64(n)
			}
			coo.Add(i, j, s)
		}
	}
	a := coo.ToCSR()
	g, err := Build(a, LowerPattern(a))
	if err != nil {
		t.Fatal(err)
	}
	// Check GᵀG·A ≈ I by applying to basis vectors.
	gt := g.Transpose()
	e := make([]float64, n)
	w1 := make([]float64, n)
	w2 := make([]float64, n)
	for j := 0; j < n; j++ {
		for k := range e {
			e[k] = 0
		}
		e[j] = 1
		a.MulVec(e, w1)
		g.MulVec(w1, w2)
		gt.MulVec(w2, w1)
		for i := 0; i < n; i++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(w1[i]-want) > 1e-8 {
				t.Fatalf("(GᵀGA)[%d][%d] = %v, want %v", i, j, w1[i], want)
			}
		}
	}
}

func TestBuildRejectsBadPattern(t *testing.T) {
	a := matgen.Poisson2D(3, 3)
	// Missing diagonal in row 0.
	p := sparse.PatternFromRows(9, 9, [][]int{
		{}, {0, 1}, {2}, {3}, {4}, {5}, {6}, {7}, {8},
	})
	if _, err := Build(a, p); err == nil {
		t.Fatal("empty row accepted")
	}
	// Upper-triangular junk: row ends beyond the diagonal.
	p2 := sparse.PatternFromRows(9, 9, [][]int{
		{0, 5}, {1}, {2}, {3}, {4}, {5}, {6}, {7}, {8},
	})
	if _, err := Build(a, p2); err == nil {
		t.Fatal("row not ending at diagonal accepted")
	}
}

func TestBuildShapeMismatch(t *testing.T) {
	a := matgen.Poisson2D(3, 3)
	p := LowerPattern(matgen.Poisson2D(2, 2))
	if _, err := Build(a, p); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if _, err := Build(sparse.NewCSR(2, 3, 0), p); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestFSAIReducesCGIterations(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"poisson", matgen.Poisson2D(20, 20)},
		{"thermal", matgen.ThermalAniso(16, 16, 1, 50)},
		{"cfd", matgen.CFDDiffusion(14, 14, 500, 2)},
		{"elasticity", matgen.Elasticity2D(8, 8, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.a
			b := matgen.RandomRHS(a.Rows, 3, a.MaxNorm())
			x1 := make([]float64, a.Rows)
			st1, err := krylov.CG(a, b, x1, nil, krylov.Options{MaxIter: 100000}, nil)
			if err != nil {
				t.Fatal(err)
			}
			g, err := Build(a, LowerPattern(a))
			if err != nil {
				t.Fatal(err)
			}
			x2 := make([]float64, a.Rows)
			st2, err := krylov.CG(a, b, x2, krylov.NewSplit(g, g.Transpose()), krylov.Options{MaxIter: 100000}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st2.Iterations >= st1.Iterations {
				t.Fatalf("FSAI %d iters not below plain CG %d", st2.Iterations, st1.Iterations)
			}
		})
	}
}

// FilterPattern drops entries of g with |g_ij| < filter·|g_ii| (the paper's
// scale-independent comparison with the diagonal) and returns the surviving
// pattern: the serial reference of FilterDist. Diagonal entries always
// survive. filter ≤ 0 keeps every stored position.
func FilterPattern(g *sparse.CSR, filter float64) *sparse.Pattern {
	p := &sparse.Pattern{Rows: g.Rows, Cols: g.Cols, RowPtr: make([]int, g.Rows+1)}
	for i := 0; i < g.Rows; i++ {
		cols, vals := g.Row(i)
		diag := 0.0
		for k, c := range cols {
			if c == i {
				diag = math.Abs(vals[k])
			}
		}
		for k, c := range cols {
			if c == i || math.Abs(vals[k]) >= filter*diag {
				p.ColIdx = append(p.ColIdx, c)
			}
		}
		p.RowPtr[i+1] = len(p.ColIdx)
	}
	return p
}

func TestFilterPatternAndCount(t *testing.T) {
	a := matgen.CFDDiffusion(8, 8, 100, 4)
	g, err := Build(a, PowerPatternWorkers(a, 2, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0, 0.01, 0.1, 0.5} {
		p := FilterPattern(g, f)
		if int64(p.NNZ()) != CountFilteredDist(g, 0, f, nil) {
			t.Fatalf("filter %v: pattern %d != count %d", f, p.NNZ(), CountFilteredDist(g, 0, f, nil))
		}
		// Diagonal always survives.
		for i := 0; i < p.Rows; i++ {
			if !p.Has(i, i) {
				t.Fatalf("filter %v dropped diagonal %d", f, i)
			}
		}
	}
	// Monotonicity: larger filter, fewer entries.
	if CountFilteredDist(g, 0, 0.01, nil) < CountFilteredDist(g, 0, 0.1, nil) {
		t.Fatal("filter not monotone")
	}
	if FilterPattern(g, 0).NNZ() != g.NNZ() {
		t.Fatal("filter 0 dropped entries")
	}
}

func TestBuildFilteredStillPreconditioners(t *testing.T) {
	a := matgen.Poisson2D(12, 12)
	s := PowerPatternWorkers(a, 2, 0, 0)
	g1, err := Build(a, s)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := RebuildWorkers(a, g1, FilterPattern(g1, 0.05), 0)
	if err != nil {
		t.Fatal(err)
	}
	b := matgen.RandomRHS(a.Rows, 5, a.MaxNorm())
	x := make([]float64, a.Rows)
	st, err := krylov.CG(a, b, x, krylov.NewSplit(g, g.Transpose()), krylov.Options{}, nil)
	if err != nil || !st.Converged {
		t.Fatalf("filtered FSAI failed: %+v %v", st, err)
	}
}

func TestBuildDistMatchesSerial(t *testing.T) {
	a := matgen.Poisson2D(9, 8)
	n := a.Rows
	gSerial, err := Build(a, LowerPattern(a))
	if err != nil {
		t.Fatal(err)
	}
	for _, nranks := range []int{1, 2, 4} {
		l := distmat.NewUniformLayout(n, nranks)
		got := make([]*sparse.CSR, nranks)
		_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
			lo, hi := l.Range(c.Rank())
			aRows := distmat.ExtractLocalRows(a, lo, hi)
			s := localLowerPattern(aRows, lo)
			g, _, err := RebuildDistWorkers(c, l, aRows, nil, s, 1)
			if err != nil {
				return err
			}
			got[c.Rank()] = g
			return nil
		})
		if err != nil {
			t.Fatalf("nranks=%d: %v", nranks, err)
		}
		for r := 0; r < nranks; r++ {
			lo, hi := l.Range(r)
			for li := 0; li < hi-lo; li++ {
				gc, gv := got[r].Row(li)
				wc, wv := gSerial.Row(lo + li)
				if len(gc) != len(wc) {
					t.Fatalf("nranks=%d row %d: %d entries, want %d", nranks, lo+li, len(gc), len(wc))
				}
				for k := range wc {
					if gc[k] != wc[k] || math.Abs(gv[k]-wv[k]) > 1e-12*(1+math.Abs(wv[k])) {
						t.Fatalf("nranks=%d row %d entry %d: (%d,%g) vs (%d,%g)",
							nranks, lo+li, k, gc[k], gv[k], wc[k], wv[k])
					}
				}
			}
		}
	}
}

// localLowerPattern builds the DistRows lower pattern from a rank's rows.
func localLowerPattern(aRows *sparse.CSR, lo int) *DistRows {
	rowSets := make([][]int, aRows.Rows)
	for li := 0; li < aRows.Rows; li++ {
		gi := lo + li
		cols, _ := aRows.Row(li)
		var set []int
		hasDiag := false
		for _, c := range cols {
			if c <= gi {
				set = append(set, c)
				if c == gi {
					hasDiag = true
				}
			}
		}
		if !hasDiag {
			set = append(set, gi)
		}
		rowSets[li] = set
	}
	return &DistRows{
		Lo: lo, Hi: lo + aRows.Rows,
		Pattern: sparse.PatternFromRows(aRows.Rows, aRows.Cols, rowSets),
	}
}

func TestFilterDistMatchesSerial(t *testing.T) {
	a := matgen.CFDDiffusion(7, 7, 50, 6)
	n := a.Rows
	g, err := Build(a, LowerPattern(a))
	if err != nil {
		t.Fatal(err)
	}
	wantP := FilterPattern(g, 0.05)
	// Slice g's rows as two "ranks" and filter distributedly.
	l := distmat.NewUniformLayout(n, 2)
	for r := 0; r < 2; r++ {
		lo, hi := l.Range(r)
		gRows := distmat.ExtractLocalRows(g, lo, hi)
		fd := FilterDist(gRows, lo, hi, 0.05, nil)
		if cf := CountFilteredDist(gRows, lo, 0.05, nil); cf != int64(fd.Pattern.NNZ()) {
			t.Fatalf("count %d != pattern %d", cf, fd.Pattern.NNZ())
		}
		for li := 0; li < hi-lo; li++ {
			want := wantP.Row(lo + li)
			got := fd.Pattern.Row(li)
			if len(want) != len(got) {
				t.Fatalf("row %d: %v vs %v", lo+li, got, want)
			}
			for k := range want {
				if want[k] != got[k] {
					t.Fatalf("row %d: %v vs %v", lo+li, got, want)
				}
			}
		}
	}
}

// Property: FSAI on random SPD diagonally-dominant matrices always yields
// diag(GAGᵀ)=1 and a convergent preconditioned CG.
func TestQuickFSAINormalized(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		a := testsets.RandomSPD(rng, n, testsets.SPDOptions{
			Diag:      4,
			Couplings: 2 * n,
			Off:       func(r *rand.Rand) float64 { return 0.3 * r.NormFloat64() },
		})
		g, err := Build(a, LowerPattern(a))
		if err != nil {
			return false
		}
		for _, d := range diagGAGT(a, g) {
			if math.Abs(d-1) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerPatternDistMatchesSerial(t *testing.T) {
	a := matgen.CFDDiffusion(9, 9, 50, 3)
	n := a.Rows
	for _, tc := range []struct {
		level int
		tau   float64
	}{
		{1, 0}, {2, 0}, {3, 0}, {2, 0.2},
	} {
		want := PowerPatternWorkers(a, tc.level, tc.tau, 0)
		for _, nranks := range []int{1, 3} {
			l := distmat.NewUniformLayout(n, nranks)
			got := make([]*DistRows, nranks)
			_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
				lo, hi := l.Range(c.Rank())
				aRows := distmat.ExtractLocalRows(a, lo, hi)
				d, err := PowerPatternDist(c, l, aRows, lo, hi, tc.level, tc.tau)
				if err != nil {
					return err
				}
				got[c.Rank()] = d
				return nil
			})
			if err != nil {
				t.Fatalf("level=%d tau=%g nranks=%d: %v", tc.level, tc.tau, nranks, err)
			}
			for r := 0; r < nranks; r++ {
				lo, hi := l.Range(r)
				for li := 0; li < hi-lo; li++ {
					wr := want.Row(lo + li)
					gr := got[r].Pattern.Row(li)
					if len(wr) != len(gr) {
						t.Fatalf("level=%d tau=%g nranks=%d row %d: got %v want %v",
							tc.level, tc.tau, nranks, lo+li, gr, wr)
					}
					for k := range wr {
						if wr[k] != gr[k] {
							t.Fatalf("level=%d tau=%g nranks=%d row %d: got %v want %v",
								tc.level, tc.tau, nranks, lo+li, gr, wr)
						}
					}
				}
			}
		}
	}
}

func TestPowerPatternDistLevelValidation(t *testing.T) {
	a := matgen.Poisson2D(4, 4)
	l := distmat.NewUniformLayout(a.Rows, 1)
	_, err := simmpi.Run(1, testTimeout, func(c *simmpi.Comm) error {
		_, err := PowerPatternDist(c, l, a, 0, a.Rows, 0, 0)
		return err
	})
	if err == nil {
		t.Fatal("level 0 accepted")
	}
}

func TestLevel2PatternImprovesPreconditioner(t *testing.T) {
	a := matgen.Poisson2D(16, 16)
	g1, err := Build(a, PowerPatternWorkers(a, 1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Build(a, PowerPatternWorkers(a, 2, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	b := matgen.RandomRHS(a.Rows, 9, a.MaxNorm())
	it := func(g *sparse.CSR) int {
		x := make([]float64, a.Rows)
		st, err := krylov.CG(a, b, x, krylov.NewSplit(g, g.Transpose()), krylov.Options{MaxIter: 100000}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st.Iterations
	}
	if i1, i2 := it(g1), it(g2); i2 >= i1 {
		t.Fatalf("level-2 pattern (%d iters) not better than level-1 (%d)", i2, i1)
	}
}
