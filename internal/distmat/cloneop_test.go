package distmat

import (
	"fmt"
	"sync"
	"testing"

	"fsaicomm/internal/simmpi"
)

// A cached setup hands every solve NewOpFromParts(lz, plan.Clone()): the
// derived operators must produce bit-identical SpMVs to the originals, and
// clones of one prototype must be usable from concurrent worlds.
func TestNewOpFromPartsBitIdentical(t *testing.T) {
	a := grid2d(13, 9)
	const ranks = 3
	l := NewUniformLayout(a.Rows, ranks)
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = 0.25*float64(i%17) - 1
	}

	// Setup world: build the prototype operators once.
	lzs := make([]*Localized, ranks)
	plans := make([]*HaloPlan, ranks)
	yRef := make([]float64, a.Rows)
	if _, err := simmpi.Run(ranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		op := NewOp(c, l, lo, hi, ExtractLocalRows(a, lo, hi))
		lzs[c.Rank()] = op.LZ
		plans[c.Rank()] = op.Plan
		scratch := NewDistVec(op.LZ)
		op.MulVec(c, x[lo:hi], yRef[lo:hi], scratch, nil)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Several concurrent solve worlds, each running blocking and overlapped
	// async SpMVs on its own clones of the cached parts.
	var wg sync.WaitGroup
	errs := make([]error, 4)
	results := make([][]float64, 4)
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := make([]float64, a.Rows)
			_, err := simmpi.Run(ranks, testTimeout, func(c *simmpi.Comm) error {
				lo, hi := l.Range(c.Rank())
				op := NewOpFromParts(lzs[c.Rank()], plans[c.Rank()].Clone(), WithOverlap())
				scratch := NewDistVec(op.LZ)
				y2 := make([]float64, hi-lo)
				op.MulVec(c, x[lo:hi], y[lo:hi], scratch, nil)
				op.overlap.MulVecOverlapAsync(c, x[lo:hi], y2, scratch, nil)
				for i := range y2 {
					if y2[i] != y[lo+i] {
						t.Errorf("world %d rank %d: async SpMV differs at %d", w, c.Rank(), i)
						break
					}
				}
				return nil
			})
			errs[w] = err
			results[w] = y
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("world %d: %v", w, err)
		}
		for i := range yRef {
			if results[w][i] != yRef[i] {
				t.Fatalf("world %d: cloned-op SpMV differs from prototype at %d: %g != %g",
					w, i, results[w][i], yRef[i])
			}
		}
	}
}

// TestOverlapSplitSharedByViews: the interior/boundary split is made once
// per localized pattern. Operators on views of it with other values — one
// per job, or per refactored system — read the same split, and its ranges
// are ordered, never touch, and together hold every local row.
func TestOverlapSplitSharedByViews(t *testing.T) {
	a := grid2d(9, 9)
	l := NewUniformLayout(a.Rows, 3)
	_, err := simmpi.Run(3, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		rows := ExtractLocalRows(a, lo, hi)
		op := NewOp(c, l, lo, hi, rows)
		first := op.EnsureOverlap()
		for _, vals := range [][]float64{rows.Val, make([]float64, len(rows.Val))} {
			other := NewOpFromParts(op.LZ.WithValues(vals), op.Plan.Clone()).EnsureOverlap()
			if &other.interior[0] != &first.interior[0] || &other.boundary[0] != &first.boundary[0] {
				return fmt.Errorf("rank %d: a view with other values split its rows again", c.Rank())
			}
		}
		for _, ranges := range [][]int{first.interior, first.boundary} {
			for k := 2; k < len(ranges); k += 2 {
				if ranges[k] <= ranges[k-1] {
					return fmt.Errorf("rank %d: ranges %v touch or overlap", c.Rank(), ranges)
				}
			}
		}
		if n := rowsIn(first.interior) + rowsIn(first.boundary); n != hi-lo {
			return fmt.Errorf("rank %d: the ranges hold %d of %d rows", c.Rank(), n, hi-lo)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
