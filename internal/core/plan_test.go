package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/fsai"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
)

// analyseRanks runs Analyse on every rank of l for pa's pattern. Without
// the gather plan (plan false) the first build walks the rows of A, as it
// does where values shape the pattern.
func analyseRanks(t *testing.T, pa *sparse.CSR, l *distmat.Layout, cfg Config, plan bool) []*Symbolic {
	t.Helper()
	if !plan {
		defer func(f func(*distmat.GatheredRows, *fsai.DistRows, int) *fsai.GatherPlan) { planRows = f }(planRows)
		planRows = func(*distmat.GatheredRows, *fsai.DistRows, int) *fsai.GatherPlan { return nil }
	}
	syms := make([]*Symbolic, l.NRanks())
	_, err := simmpi.Run(l.NRanks(), testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		s, err := Analyse(c, l, distmat.ExtractLocalRows(pa, lo, hi), cfg)
		if err != nil {
			return err
		}
		if (s.pat.rows != nil) != plan {
			return fmt.Errorf("rank %d: gather plan %v, want one: %v", c.Rank(), s.pat.rows != nil, plan)
		}
		syms[c.Rank()] = s
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return syms
}

// factorRanks runs Factor on every rank with the entries vals of pa's
// pattern, each rank handed its plan of prev (nil: none).
func factorRanks(syms []*Symbolic, pa *sparse.CSR, l *distmat.Layout, vals []float64, prev []*Build) ([]*Build, error) {
	out := make([]*Build, l.NRanks())
	_, err := simmpi.Run(l.NRanks(), testTimeout, func(c *simmpi.Comm) error {
		r := c.Rank()
		lo, hi := l.Range(r)
		var plan *FactorPlan
		if prev != nil {
			plan = prev[r].Plan
		}
		b, err := syms[r].Factor(c, vals[pa.RowPtr[lo]:pa.RowPtr[hi]], plan)
		out[r] = b
		return err
	})
	return out, err
}

// scaledDiagonal returns pa's values with the diagonal scaled by 1+f: other
// values of the same pattern, still SPD for f ≥ 0.
func scaledDiagonal(pa *sparse.CSR, f float64) []float64 {
	v := make([]float64, len(pa.Val))
	for i := 0; i < pa.Rows; i++ {
		for k := pa.RowPtr[i]; k < pa.RowPtr[i+1]; k++ {
			v[k] = pa.Val[k]
			if pa.ColIdx[k] == i {
				v[k] *= 1 + f
			}
		}
	}
	return v
}

// sameFactors fails unless both builds hold G and Gᵀ with the same pattern
// and the same bits on every rank.
func sameFactors(got, want []*Build) error {
	for r := range want {
		if err := sameBits(got[r].GRows, want[r].GRows); err != nil {
			return fmt.Errorf("rank %d G: %w", r, err)
		}
		if err := sameBits(got[r].GTRows, want[r].GTRows); err != nil {
			return fmt.Errorf("rank %d Gᵀ: %w", r, err)
		}
	}
	return nil
}

// TestGatherPlanMatchesMergeWalk: the factors of a structure whose first
// build replays the gather plan made at analyse time are the bits of one
// whose row solves walk the rows of A — for FSAI, FSAIE and FSAIE-Comm, at
// Filter 0 and at 0.05 static and dynamic (whose rebuild walks A's rows
// either way), on 1 to 3 ranks with 1, 2 and GOMAXPROCS workers a rank.
// Each runs a chain of three factor phases on one structure, the first
// build and two refactors handed the plan before them, against factors
// from nothing; those, whose bits no worker count changes, are made once
// with one worker.
func TestGatherPlanMatchesMergeWalk(t *testing.T) {
	a := matgen.CFDDiffusion(18, 18, 500, 3)
	type filter struct {
		f float64
		s FilterStrategy
	}
	for ranks := 1; ranks <= 3; ranks++ {
		pa, l := distSetup(t, a, ranks)
		values := [][]float64{pa.Val, scaledDiagonal(pa, 0.5), scaledDiagonal(pa, 0.05)}
		for _, method := range []Method{FSAI, FSAIE, FSAIEComm} {
			for _, flt := range []filter{{0, StaticFilter}, {0.05, StaticFilter}, {0.05, DynamicFilter}} {
				cfg := Config{Method: method, Filter: flt.f, Strategy: flt.s, LineBytes: 64, Workers: 1}
				walked := analyseRanks(t, pa, l, cfg, false)
				want := make([][]*Build, len(values))
				for k, vals := range values {
					var err error
					if want[k], err = factorRanks(walked, pa, l, vals, nil); err != nil {
						t.Fatalf("%d ranks, %v, filter %v %v, factor %d from nothing: %v", ranks, method, flt.f, flt.s, k, err)
					}
				}
				for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
					cfg.Workers = workers
					label := fmt.Sprintf("%d ranks, %v, filter %v %v, %d workers", ranks, method, flt.f, flt.s, workers)
					planned := analyseRanks(t, pa, l, cfg, true)
					var prev []*Build
					for k, vals := range values {
						got, err := factorRanks(planned, pa, l, vals, prev)
						if err != nil {
							t.Fatalf("%s, factor %d: %v", label, k, err)
						}
						if err := sameFactors(got, want[k]); err != nil {
							t.Fatalf("%s, factor %d: %v", label, k, err)
						}
						prev = got
					}
				}
			}
		}
	}
}

// TestFactorMakesNoGatherPlan: the gather plan is made once per analysed
// structure, by Analyse on each rank; the factor phases on it — the first
// build and refactors, one after another or side by side — make none.
func TestFactorMakesNoGatherPlan(t *testing.T) {
	var calls atomic.Int64
	defer func(f func(*distmat.GatheredRows, *fsai.DistRows, int) *fsai.GatherPlan) { planRows = f }(planRows)
	plan := planRows
	planRows = func(rows *distmat.GatheredRows, s *fsai.DistRows, workers int) *fsai.GatherPlan {
		calls.Add(1)
		return plan(rows, s, workers)
	}
	pa, l := distSetup(t, matgen.Poisson3D(10, 10, 10), 2)
	syms := analyseRanks(t, pa, l, Config{Method: FSAIEComm, LineBytes: 64}, true)
	if n := calls.Load(); n != 2 {
		t.Fatalf("Analyse on 2 ranks made %d gather plans", n)
	}
	first, err := factorRanks(syms, pa, l, pa.Val, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := factorRanks(syms, pa, l, scaledDiagonal(pa, 1), first); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("two factor phases made %d gather plans beside Analyse's 2", n-2)
	}
}

// TestConcurrentFactorsShareTheGatherPlan: two refactors of one structure
// run at once, each in its own world, replay the plan they share and give
// the bits each gives alone (make tier2 runs this under the race detector).
func TestConcurrentFactorsShareTheGatherPlan(t *testing.T) {
	pa, l := distSetup(t, matgen.Poisson3D(12, 12, 12), 2)
	syms := analyseRanks(t, pa, l, Config{Method: FSAIEComm, LineBytes: 64, Workers: 2}, true)
	donor, err := factorRanks(syms, pa, l, pa.Val, nil)
	if err != nil {
		t.Fatal(err)
	}
	values := [][]float64{scaledDiagonal(pa, 0.25), scaledDiagonal(pa, 2)}
	alone := make([][]*Build, len(values))
	for k, vals := range values {
		if alone[k], err = factorRanks(syms, pa, l, vals, donor); err != nil {
			t.Fatal(err)
		}
	}
	together := make([][]*Build, len(values))
	errs := make([]error, len(values))
	var wg sync.WaitGroup
	for k, vals := range values {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[k], errs[k] = factorRanks(syms, pa, l, vals, donor)
		}()
	}
	wg.Wait()
	for k := range values {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		if err := sameFactors(together[k], alone[k]); err != nil {
			t.Fatalf("refactor %d run beside another: %v", k, err)
		}
	}
}
