package distmat

import (
	"math/rand"
	"slices"
	"testing"

	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
)

// withValues returns a copy of a's structure with other, distinct values.
func withValues(a *sparse.CSR, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	b := a.Clone()
	for k := range b.Val {
		b.Val[k] = rng.NormFloat64()
	}
	return b
}

// TestPlansServeOtherValues: each set-up step that was split into a plan
// over the pattern and a pass over the values — permutation, localization,
// remote-row gather, distributed transpose — gives, planned once on a
// pattern without values and run for two value sets, exactly what the
// one-shot function gives for each matrix; on random layouts, so that rows
// reach below, inside and above the local range.
func TestPlansServeOtherValues(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := grid2d(7, 6)
	n := a.Rows
	pattern := &sparse.CSR{Rows: n, Cols: n, RowPtr: a.RowPtr, ColIdx: a.ColIdx}

	oldToNew := rng.Perm(n)
	pa, src := PermutePattern(pattern, oldToNew)
	if pa.Val != nil {
		t.Fatal("PermutePattern made up values")
	}
	for _, m := range []*sparse.CSR{a, withValues(a, 1)} {
		want := Permute(m, oldToNew)
		if !slices.Equal(pa.RowPtr, want.RowPtr) || !slices.Equal(pa.ColIdx, want.ColIdx) || !slices.Equal(Gather(m.Val, src), want.Val) {
			t.Fatal("PermutePattern + Gather differ from Permute")
		}
	}

	for trial := 0; trial < 6; trial++ {
		const nranks = 3
		l := randomLayout(rng, n, nranks)
		mats := []*sparse.CSR{withValues(a, int64(10+trial)), withValues(a, int64(20+trial))}
		_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
			lo, hi := l.Range(c.Rank())
			rows := ExtractLocalRows(pattern, lo, hi)
			lz := Localize(lo, hi, rows)
			if lz.M.Val != nil {
				t.Errorf("Localize made up values")
			}
			var wanted []int
			for _, g := range rows.ColIdx {
				wanted = append(wanted, g, (g+5)%n)
			}
			gather := PlanGather(c, l, lo, hi, rows, wanted)
			transpose := PlanTranspose(c, l, lo, hi, rows)
			for _, m := range mats {
				mine := ExtractLocalRows(m, lo, hi)
				got, want := lz.WithValues(mine.Val), Localize(lo, hi, mine)
				if !slices.Equal(got.M.ColIdx, want.M.ColIdx) || !slices.Equal(got.M.Val, want.M.Val) || !slices.Equal(got.Halo, want.Halo) {
					t.Errorf("rank %d: WithValues differs from Localize of the valued rows", c.Rank())
				}
				fetched, ref := gather.Values(c, mine), GatherRemoteRows(c, l, lo, hi, mine, wanted)
				for _, g := range wanted {
					gc, gv := fetched.Row(g)
					wc, wv := ref.Row(g)
					if !slices.Equal(gc, wc) || !slices.Equal(gv, wv) {
						t.Errorf("rank %d: planned gather of row %d differs from GatherRemoteRows", c.Rank(), g)
					}
				}
				tv, tref := transpose.Values(c, mine.Val), TransposeDist(c, l, lo, hi, mine)
				if !slices.Equal(transpose.RowPtr, tref.RowPtr) || !slices.Equal(transpose.ColIdx, tref.ColIdx) || !slices.Equal(tv, tref.Val) {
					t.Errorf("rank %d: planned transpose differs from TransposeDist", c.Rank())
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestWithValuesSharesOrCopies: a view whose rows never reach below the local
// range keeps the caller's value slice; one with such rows gets its own; one
// localized from unsorted rows cannot be revalued at all.
func TestWithValuesSharesOrCopies(t *testing.T) {
	a := grid2d(5, 4)
	first := Localize(0, 8, ExtractLocalRows(a, 0, 8))
	vals := make([]float64, first.M.NNZ())
	if got := first.WithValues(vals); &got.M.Val[0] != &vals[0] {
		t.Error("no row reaches below the range, yet the values were copied")
	}
	mid := ExtractLocalRows(a, 8, 14)
	vals = slices.Clone(mid.Val)
	if got := Localize(8, 14, mid).WithValues(vals); &got.M.Val[0] == &vals[0] || !slices.Equal(vals, mid.Val) {
		t.Error("rows reach below the range, yet the view reordered the caller's slice")
	}
	shuffled := mid.Clone()
	shuffled.ColIdx[0], shuffled.ColIdx[1] = shuffled.ColIdx[1], shuffled.ColIdx[0]
	defer func() {
		if recover() == nil {
			t.Error("WithValues accepted a view localized from unsorted rows")
		}
	}()
	Localize(8, 14, shuffled).WithValues(vals)
}
