package distmat

import (
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

	// Several concurrent solve worlds, each running SpMVs on its own clones
	// of the cached parts, the second with a posted reduction in flight.
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
				op := NewOpFromParts(lzs[c.Rank()], plans[c.Rank()].Clone())
				scratch := NewDistVec(op.LZ)
				y2 := make([]float64, hi-lo)
				op.MulVec(c, x[lo:hi], y[lo:hi], scratch, nil)
				op.MulVec(c, x[lo:hi], y2, scratch, nil)
				for i := range y2 {
					if y2[i] != y[lo+i] {
						t.Errorf("world %d rank %d: a second SpMV over the same scratch differs at %d", w, c.Rank(), i)
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
