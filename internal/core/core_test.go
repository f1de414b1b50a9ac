package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/fsai"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/partition"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/testsets"
)

const testTimeout = 30 * time.Second

// distSetup partitions a with the multilevel partitioner and returns the
// permuted matrix plus layout.
func distSetup(t testing.TB, a *sparse.CSR, nranks int) (*sparse.CSR, *distmat.Layout) {
	t.Helper()
	g := partition.GraphFromMatrix(a)
	part, err := partition.Multilevel(g, nranks, partition.Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	pa, l, _ := distmat.ApplyPartition(a, part, nranks)
	return pa, l
}

func TestExtendPatternSerialSupersetAndCacheBounded(t *testing.T) {
	a := matgen.Poisson2D(16, 16)
	s := fsai.LowerPattern(a)
	for _, lineBytes := range []int{64, 256} {
		ext, err := ExtendPatternSerial(s, lineBytes)
		if err != nil {
			t.Fatal(err)
		}
		if !ext.Contains(s) {
			t.Fatalf("line %d: extension lost entries", lineBytes)
		}
		if ext.NNZ() <= s.NNZ() {
			t.Fatalf("line %d: nothing added", lineBytes)
		}
		w := lineBytes / 8
		// Every added entry must share a cache line with an original entry
		// and stay lower triangular.
		for i := 0; i < ext.Rows; i++ {
			orig := s.Row(i)
			lineHas := map[int]bool{}
			for _, c := range orig {
				lineHas[c/w] = true
			}
			for _, c := range ext.Row(i) {
				if c > i {
					t.Fatalf("line %d: upper entry (%d,%d)", lineBytes, i, c)
				}
				if !lineHas[c/w] {
					t.Fatalf("line %d: entry (%d,%d) outside fetched lines", lineBytes, i, c)
				}
			}
		}
	}
}

func TestWiderLinesExtendMore(t *testing.T) {
	a := matgen.Elasticity2D(10, 10, 3)
	s := fsai.LowerPattern(a)
	e64, err := ExtendPatternSerial(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	e256, err := ExtendPatternSerial(s, 256)
	if err != nil {
		t.Fatal(err)
	}
	if e256.NNZ() <= e64.NNZ() {
		t.Fatalf("256B extension (%d) not larger than 64B (%d)", e256.NNZ(), e64.NNZ())
	}
	if !e256.Contains(e64) {
		t.Fatal("wider line does not contain narrower extension")
	}
}

func TestExtendPatternBadLineSize(t *testing.T) {
	s := fsai.LowerPattern(matgen.Poisson2D(3, 3))
	if _, err := ExtendPatternSerial(s, 0); err == nil {
		t.Fatal("line size 0 accepted")
	}
	if _, err := ExtendPatternSerial(s, 12); err == nil {
		t.Fatal("line size 12 accepted")
	}
}

// runBuild builds a preconditioner variant on nranks ranks and returns
// per-rank builds plus the world for meter inspection.
func runBuild(t testing.TB, pa *sparse.CSR, l *distmat.Layout, cfg Config) ([]*Build, *simmpi.World) {
	t.Helper()
	nranks := l.NRanks()
	builds := make([]*Build, nranks)
	w, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		b, err := BuildPrecond(c, l, distmat.ExtractLocalRows(pa, lo, hi), cfg)
		if err != nil {
			return err
		}
		builds[c.Rank()] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return builds, w
}

func TestCommunicationInvariance(t *testing.T) {
	// THE paper invariant: the halo-exchange plans of the FSAIE-Comm
	// extended factor (G and Gᵀ) exchange exactly the same unknown sets
	// between the same peers as the unextended FSAI factor.
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"poisson", matgen.Poisson2D(14, 14)},
		{"elasticity", matgen.Elasticity2D(8, 8, 5)},
		{"circuit", matgen.CircuitLaplacian(300, 6, 7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nranks := 4
			pa, l := distSetup(t, tc.a, nranks)
			base, _ := runBuild(t, pa, l, Config{Method: FSAI, LineBytes: 64})
			ext, _ := runBuild(t, pa, l, Config{Method: FSAIEComm, Filter: 0, Strategy: StaticFilter, LineBytes: 64})
			for r := 0; r < nranks; r++ {
				// Unfiltered FSAIE-Comm: exchanged unknown sets of G must
				// match FSAI exactly (extension admits only already-exchanged
				// unknowns, and supersets of the pattern keep all columns).
				bG := base[r].GOp
				eG := ext[r].GOp
				if !distmat.GlobalsEqual(bG.Plan.RecvGlobals(bG.LZ), eG.Plan.RecvGlobals(eG.LZ)) {
					t.Fatalf("rank %d: G recv sets changed", r)
				}
				if !distmat.GlobalsEqual(bG.Plan.SendGlobals(bG.LZ), eG.Plan.SendGlobals(eG.LZ)) {
					t.Fatalf("rank %d: G send sets changed", r)
				}
				// Gᵀ exchanges must not grow either: every unknown Gᵀ_ext
				// receives was already received by Gᵀ_base.
				bT := base[r].GTOp
				eT := ext[r].GTOp
				bRecv := bT.Plan.RecvGlobals(bT.LZ)
				eRecv := eT.Plan.RecvGlobals(eT.LZ)
				for peer := range eRecv {
					have := map[int]bool{}
					for _, g := range bRecv[peer] {
						have[g] = true
					}
					for _, g := range eRecv[peer] {
						if !have[g] {
							t.Fatalf("rank %d: Gᵀ now receives unknown %d from %d", r, g, peer)
						}
					}
				}
			}
		})
	}
}

func TestSolveTrafficIdenticalAcrossMethods(t *testing.T) {
	// Byte-metered proof: one PCG iteration loop exchanges exactly the same
	// volume under FSAI and unfiltered FSAIE-Comm.
	a := matgen.Poisson2D(12, 12)
	nranks := 4
	pa, l := distSetup(t, a, nranks)
	b := matgen.RandomRHS(pa.Rows, 5, pa.MaxNorm())

	solveBytes := func(method Method) (int64, int) {
		var bytes int64
		iters := 0
		_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
			lo, hi := l.Range(c.Rank())
			aRows := distmat.ExtractLocalRows(pa, lo, hi)
			bd, err := BuildPrecond(c, l, aRows, Config{Method: method, Filter: 0, Strategy: StaticFilter, LineBytes: 64})
			if err != nil {
				return err
			}
			aOp := distmat.NewOp(c, l, lo, hi, aRows)
			c.Barrier()
			if c.Rank() == 0 {
				c.Meter().Reset() // meter the solve only
			}
			c.Barrier()
			x := make([]float64, hi-lo)
			st, err := krylov.DistCG(c, aOp, b[lo:hi], x, krylov.NewDistSplit(bd.GOp, bd.GTOp), krylov.Options{MaxIter: 2000}, nil)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				iters = st.Iterations
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return bytes, iters
	}
	_ = solveBytes
	// Per-iteration byte volume: run both methods, dividing total metered
	// bytes by iterations.
	perIter := map[Method]float64{}
	for _, m := range []Method{FSAI, FSAIEComm} {
		var total int64
		var iters int
		w, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
			lo, hi := l.Range(c.Rank())
			aRows := distmat.ExtractLocalRows(pa, lo, hi)
			bd, err := BuildPrecond(c, l, aRows, Config{Method: m, Filter: 0, Strategy: StaticFilter, LineBytes: 64})
			if err != nil {
				return err
			}
			aOp := distmat.NewOp(c, l, lo, hi, aRows)
			c.Barrier()
			if c.Rank() == 0 {
				c.Meter().Reset()
			}
			c.Barrier()
			x := make([]float64, hi-lo)
			st, err := krylov.DistCG(c, aOp, b[lo:hi], x, krylov.NewDistSplit(bd.GOp, bd.GTOp), krylov.Options{MaxIter: 4000}, nil)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				iters = st.Iterations
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		total = w.Meter().TotalP2PBytes()
		perIter[m] = float64(total) / float64(iters)
	}
	if perIter[FSAI] != perIter[FSAIEComm] {
		t.Fatalf("per-iteration traffic differs: FSAI %.1f vs FSAIE-Comm %.1f bytes", perIter[FSAI], perIter[FSAIEComm])
	}
}

func TestMethodHierarchyIterations(t *testing.T) {
	// FSAIE-Comm pattern ⊇ FSAIE pattern ⊇ FSAI pattern (unfiltered), and
	// iterations should not increase along the chain.
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"poisson", matgen.Poisson2D(16, 16)},
		{"thermal", matgen.ThermalAniso(14, 14, 1, 40)},
		{"elasticity", matgen.Elasticity2D(9, 9, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nranks := 4
			pa, l := distSetup(t, tc.a, nranks)
			b := matgen.RandomRHS(pa.Rows, 7, pa.MaxNorm())
			iters := map[Method]int{}
			nnz := map[Method]int64{}
			for _, m := range []Method{FSAI, FSAIE, FSAIEComm} {
				builds, _ := runBuild(t, pa, l, Config{Method: m, Filter: 0, Strategy: StaticFilter, LineBytes: 64})
				nnz[m] = builds[0].FinalNNZGlobal
				var itersM int
				_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
					lo, hi := l.Range(c.Rank())
					aRows := distmat.ExtractLocalRows(pa, lo, hi)
					bd, err := BuildPrecond(c, l, aRows, Config{Method: m, Filter: 0, Strategy: StaticFilter, LineBytes: 64})
					if err != nil {
						return err
					}
					aOp := distmat.NewOp(c, l, lo, hi, aRows)
					x := make([]float64, hi-lo)
					st, err := krylov.DistCG(c, aOp, b[lo:hi], x, krylov.NewDistSplit(bd.GOp, bd.GTOp), krylov.Options{MaxIter: 5000}, nil)
					if err != nil {
						return err
					}
					if c.Rank() == 0 {
						itersM = st.Iterations
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				iters[m] = itersM
			}
			if !(nnz[FSAI] <= nnz[FSAIE] && nnz[FSAIE] <= nnz[FSAIEComm]) {
				t.Fatalf("nnz hierarchy violated: %v", nnz)
			}
			if nnz[FSAIEComm] <= nnz[FSAIE] {
				t.Fatalf("FSAIE-Comm added no halo entries over FSAIE: %v", nnz)
			}
			// Allow small noise but require the trend: extensions don't hurt.
			if iters[FSAIE] > iters[FSAI]+2 || iters[FSAIEComm] > iters[FSAIE]+2 {
				t.Fatalf("iteration hierarchy violated: %v", iters)
			}
			if iters[FSAIEComm] >= iters[FSAI] {
				t.Fatalf("FSAIE-Comm (%d) did not reduce iterations vs FSAI (%d)", iters[FSAIEComm], iters[FSAI])
			}
		})
	}
}

func TestBuildPrecondSolvesCorrectly(t *testing.T) {
	a := matgen.CFDDiffusion(10, 10, 200, 9)
	nranks := 3
	pa, l := distSetup(t, a, nranks)
	b := matgen.RandomRHS(pa.Rows, 11, pa.MaxNorm())
	x := make([]float64, pa.Rows)
	_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		aRows := distmat.ExtractLocalRows(pa, lo, hi)
		bd, err := BuildPrecond(c, l, aRows, Config{Method: FSAIEComm, Filter: 0.01, Strategy: DynamicFilter, LineBytes: 64})
		if err != nil {
			return err
		}
		aOp := distmat.NewOp(c, l, lo, hi, aRows)
		xl := make([]float64, hi-lo)
		st, err := krylov.DistCG(c, aOp, b[lo:hi], xl, krylov.NewDistSplit(bd.GOp, bd.GTOp), krylov.Options{}, nil)
		if err != nil {
			return err
		}
		if !st.Converged {
			return fmt.Errorf("not converged: %+v", st)
		}
		copy(x[lo:hi], xl)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Residual check.
	r := make([]float64, pa.Rows)
	pa.MulVec(x, r)
	maxRes := 0.0
	for i := range r {
		d := b[i] - r[i]
		if d < 0 {
			d = -d
		}
		if d > maxRes {
			maxRes = d
		}
	}
	if maxRes > 1e-4*pa.MaxNorm() {
		t.Fatalf("residual %g too large", maxRes)
	}
}

func TestFilterReducesNNZMonotonically(t *testing.T) {
	a := matgen.Elasticity2D(8, 8, 13)
	nranks := 2
	pa, l := distSetup(t, a, nranks)
	var prev int64 = 1 << 62
	for _, f := range []float64{0.01, 0.05, 0.1, 0.2} {
		builds, _ := runBuild(t, pa, l, Config{Method: FSAIEComm, Filter: f, Strategy: StaticFilter, LineBytes: 64})
		if builds[0].FinalNNZGlobal > prev {
			t.Fatalf("filter %v: nnz %d grew above %d", f, builds[0].FinalNNZGlobal, prev)
		}
		prev = builds[0].FinalNNZGlobal
	}
}

func TestDynamicFilterImprovesImbalance(t *testing.T) {
	// A matrix whose extension is deliberately imbalanced: one dense-ish
	// region and one sparse region, split by a block layout.
	n := 400
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 8)
		if i > 0 {
			coo.AddSym(i, i-1, -1)
		}
	}
	// First half: many extra couplings → much larger extended rows.
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 6*n; k++ {
		i := rng.Intn(n / 2)
		j := rng.Intn(n / 2)
		if i != j {
			coo.AddSym(i, j, -0.02)
		}
	}
	a := coo.ToCSR()
	l := distmat.NewUniformLayout(n, 4)

	run := func(strategy FilterStrategy) *Build {
		builds := make([]*Build, 4)
		_, err := simmpi.Run(4, testTimeout, func(c *simmpi.Comm) error {
			lo, hi := l.Range(c.Rank())
			bd, err := BuildPrecond(c, l, distmat.ExtractLocalRows(a, lo, hi),
				Config{Method: FSAIEComm, Filter: 0.001, Strategy: strategy, LineBytes: 256})
			if err != nil {
				return err
			}
			builds[c.Rank()] = bd
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return builds[0]
	}
	st := run(StaticFilter)
	dy := run(DynamicFilter)
	if st.ImbalanceIndex >= 0.95 {
		t.Skipf("static build unexpectedly balanced (%.3f); workload too tame", st.ImbalanceIndex)
	}
	if dy.ImbalanceIndex <= st.ImbalanceIndex {
		t.Fatalf("dynamic filter did not improve imbalance: static %.3f dynamic %.3f",
			st.ImbalanceIndex, dy.ImbalanceIndex)
	}
}

func TestBuildSerialMethods(t *testing.T) {
	a := matgen.Poisson2D(12, 12)
	b := matgen.RandomRHS(a.Rows, 13, a.MaxNorm())
	itersOf := func(m Method) (int, float64) {
		g, pct, err := BuildSerial(a, m, 0.01, 64)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, a.Rows)
		st, err := krylov.CG(a, b, x, krylov.NewSplit(g, g.Transpose()), krylov.Options{MaxIter: 10000}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st.Iterations, pct
	}
	iFSAI, pct0 := itersOf(FSAI)
	iFSAIE, pct1 := itersOf(FSAIE)
	if pct0 != 0 {
		t.Fatalf("FSAI pct = %v", pct0)
	}
	if pct1 <= 0 {
		t.Fatalf("FSAIE pct = %v", pct1)
	}
	if iFSAIE >= iFSAI {
		t.Fatalf("serial FSAIE %d iters not below FSAI %d", iFSAIE, iFSAI)
	}
}

func TestBuildPrecondUnknownMethod(t *testing.T) {
	a := matgen.Poisson2D(4, 4)
	l := distmat.NewUniformLayout(a.Rows, 1)
	_, err := simmpi.Run(1, testTimeout, func(c *simmpi.Comm) error {
		_, err := BuildPrecond(c, l, distmat.ExtractLocalRows(a, 0, a.Rows), Config{Method: Method(99), LineBytes: 64})
		return err
	})
	if err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, _, err := BuildSerial(a, Method(99), 0, 64); err == nil {
		t.Fatal("unknown serial method accepted")
	}
}

func TestMethodStrings(t *testing.T) {
	if FSAI.String() != "FSAI" || FSAIE.String() != "FSAIE" || FSAIEComm.String() != "FSAIE-Comm" {
		t.Fatal("method names wrong")
	}
	if StaticFilter.String() != "static" || DynamicFilter.String() != "dynamic" {
		t.Fatal("strategy names wrong")
	}
}

// Property: extension is idempotent-ish (extending an extended pattern adds
// only entries already admissible) and always keeps the diagonal tail.
func TestQuickExtendKeepsDiagonalTail(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx, ny := 4+rng.Intn(8), 4+rng.Intn(8)
		a := matgen.Poisson2D(nx, ny)
		s := fsai.LowerPattern(a)
		ext, err := ExtendPatternSerial(s, 64)
		if err != nil {
			return false
		}
		for i := 0; i < ext.Rows; i++ {
			row := ext.Row(i)
			if len(row) == 0 || row[len(row)-1] != i {
				return false
			}
		}
		return ext.Contains(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildPrecondPatternLevel2(t *testing.T) {
	a := matgen.Poisson2D(12, 12)
	pa, l := distSetup(t, a, 3)
	b := matgen.RandomRHS(pa.Rows, 21, pa.MaxNorm())
	itersAt := func(level int) int {
		var iters int
		_, err := simmpi.Run(3, testTimeout, func(c *simmpi.Comm) error {
			lo, hi := l.Range(c.Rank())
			aRows := distmat.ExtractLocalRows(pa, lo, hi)
			bd, err := BuildPrecond(c, l, aRows, Config{
				Method: FSAI, LineBytes: 64, PatternLevel: level,
			})
			if err != nil {
				return err
			}
			aOp := distmat.NewOp(c, l, lo, hi, aRows)
			x := make([]float64, hi-lo)
			st, err := krylov.DistCG(c, aOp, b[lo:hi], x,
				krylov.NewDistSplit(bd.GOp, bd.GTOp), krylov.Options{MaxIter: 20000}, nil)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				iters = st.Iterations
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return iters
	}
	if i1, i2 := itersAt(1), itersAt(2); i2 >= i1 {
		t.Fatalf("level-2 base pattern (%d iters) not better than level-1 (%d)", i2, i1)
	}
}

func TestExtendPatternNaiveIncreasesHalo(t *testing.T) {
	a := matgen.Poisson2D(12, 12)
	pa, l := distSetup(t, a, 4)
	_, err := simmpi.Run(4, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		aRows := distmat.ExtractLocalRows(pa, lo, hi)
		s := LowerPatternDist(aRows, lo)
		lz := distmat.Localize(lo, hi, PatternCSR(s))
		comm, _, err := ExtendPattern(l, s, lz, ExtendOptions{LineBytes: 64, CommAware: true})
		if err != nil {
			return err
		}
		naive, err := ExtendPatternNaive(l, s, ExtendOptions{LineBytes: 64})
		if err != nil {
			return err
		}
		// The naive pattern is at least as large, and its halo column set
		// must be a superset (strictly larger on some rank).
		haloOf := func(d *fsai.DistRows) map[int]bool {
			out := map[int]bool{}
			for _, g := range d.Pattern.ColIdx {
				if g < lo || g >= hi {
					out[g] = true
				}
			}
			return out
		}
		hc, hn := haloOf(comm), haloOf(naive)
		for g := range hc {
			if !hn[g] {
				return fmt.Errorf("rank %d: naive halo missing comm-aware column %d", c.Rank(), g)
			}
		}
		grew := 0
		if len(hn) > len(hc) {
			grew = 1
		}
		total := simmpi.Allreduce(c, simmpi.Sum, grew)[0]
		if c.Rank() == 0 && total == 0 {
			return fmt.Errorf("naive extension never grew any rank's halo")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCommInvariance(t *testing.T) {
	a := matgen.Poisson2D(12, 12)
	pa, l := distSetup(t, a, 4)
	_, err := simmpi.Run(4, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		aRows := distmat.ExtractLocalRows(pa, lo, hi)
		base, err := BuildPrecond(c, l, aRows, Config{Method: FSAI, LineBytes: 64})
		if err != nil {
			return err
		}
		for _, cfg := range []Config{
			{Method: FSAIEComm, Filter: 0, Strategy: StaticFilter, LineBytes: 64},
			{Method: FSAIEComm, Filter: 0.05, Strategy: DynamicFilter, LineBytes: 64},
			{Method: FSAIE, Filter: 0.01, Strategy: StaticFilter, LineBytes: 256},
		} {
			ext, err := BuildPrecond(c, l, aRows, cfg)
			if err != nil {
				return err
			}
			if err := VerifyCommInvariance(c, base, ext); err != nil {
				return err
			}
			if err := VerifyTrafficInvariance(base.GOp, ext.GOp); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCommInvarianceDetectsNaive(t *testing.T) {
	// The naive extension grows the halo, so verification must fail.
	a := matgen.Poisson2D(12, 12)
	pa, l := distSetup(t, a, 4)
	_, err := simmpi.Run(4, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		aRows := distmat.ExtractLocalRows(pa, lo, hi)
		base, err := BuildPrecond(c, l, aRows, Config{Method: FSAI, LineBytes: 64})
		if err != nil {
			return err
		}
		s := LowerPatternDist(aRows, lo)
		naive, err := ExtendPatternNaive(l, s, ExtendOptions{LineBytes: 64})
		if err != nil {
			return err
		}
		g, _, err := fsai.RebuildDistWorkers(c, l, aRows, nil, naive, 1)
		if err != nil {
			return err
		}
		gt := distmat.TransposeDist(c, l, lo, hi, g)
		ext := &Build{
			GOp:  distmat.NewOp(c, l, lo, hi, g),
			GTOp: distmat.NewOp(c, l, lo, hi, gt),
		}
		if err := VerifyCommInvariance(c, base, ext); err == nil {
			return fmt.Errorf("naive extension passed invariance verification")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: for random SPD matrices, random rank counts and random line
// sizes, the unfiltered FSAIE-Comm build never changes the exchanged
// unknown sets of the baseline — the paper's claim as a quick property.
func TestQuickCommInvarianceRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(120)
		a := testsets.RandomSPD(rng, n, testsets.SPDOptions{
			Diag:      6,
			Chain:     -1,
			Couplings: 3 * n,
			Off:       func(r *rand.Rand) float64 { return -0.4 * r.Float64() },
		})
		nranks := 2 + rng.Intn(4)
		lineBytes := []int{64, 128, 256}[rng.Intn(3)]
		l := distmat.NewUniformLayout(n, nranks)
		ok := true
		_, err := simmpi.Run(nranks, testTimeout, func(cm *simmpi.Comm) error {
			lo, hi := l.Range(cm.Rank())
			aRows := distmat.ExtractLocalRows(a, lo, hi)
			base, err := BuildPrecond(cm, l, aRows, Config{Method: FSAI, LineBytes: lineBytes})
			if err != nil {
				return err
			}
			ext, err := BuildPrecond(cm, l, aRows, Config{Method: FSAIEComm, LineBytes: lineBytes})
			if err != nil {
				return err
			}
			return VerifyCommInvariance(cm, base, ext)
		})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
