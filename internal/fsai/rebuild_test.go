package fsai

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
)

// widen returns the pattern of rows [lo,hi) in which every row also holds
// the two positions left of its first entry: a superset of LowerPatternDist
// to build a "previous" factor on.
func widen(p *sparse.Pattern) *sparse.Pattern {
	rowSets := make([][]int, p.Rows)
	for li := range rowSets {
		row := p.Row(li)
		set := append([]int(nil), row...)
		for d := 1; d <= 2; d++ {
			if c := row[0] - d; c >= 0 {
				set = append(set, c)
			}
		}
		rowSets[li] = set
	}
	return sparse.PatternFromRows(p.Rows, p.Cols, rowSets)
}

// TestRebuildDistMixedReuse: ranks may differ arbitrarily in how many rows
// they copy — here even ranks are handed a previous factor on the very
// pattern they rebuild (every row copied, nothing fetched), odd ranks one
// on a wider pattern (every row solved, halo rows fetched) — and the
// rebuild must neither deadlock in the collective row gather nor differ by a
// bit from a build that copies nothing.
func TestRebuildDistMixedReuse(t *testing.T) {
	a := matgen.Poisson2D(14, 14)
	const nranks = 4
	l := distmat.NewUniformLayout(a.Rows, nranks)
	_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		aRows := distmat.ExtractLocalRows(a, lo, hi)
		s := localLowerPattern(aRows, lo)
		wide := &DistRows{Lo: lo, Hi: hi, Pattern: widen(s.Pattern)}
		prevPattern := s
		if c.Rank()%2 == 1 {
			prevPattern = wide
		}
		prev, _, err := RebuildDistWorkers(c, l, aRows, nil, prevPattern, 1)
		if err != nil {
			return err
		}
		want, _, err := RebuildDistWorkers(c, l, aRows, nil, s, 1)
		if err != nil {
			return err
		}
		got, reused, err := RebuildDistWorkers(c, l, aRows, prev, s, 2)
		if err != nil {
			return err
		}
		wantReused := hi - lo
		if c.Rank()%2 == 1 {
			wantReused = 0
			for li := 0; li < hi-lo; li++ {
				if len(wide.Pattern.Row(li)) == len(s.Pattern.Row(li)) {
					wantReused++ // nothing left of the first entry to widen into
				}
			}
		}
		if reused != wantReused {
			return fmt.Errorf("rank %d reused %d rows, want %d", c.Rank(), reused, wantReused)
		}
		if !slices.Equal(got.ColIdx, want.ColIdx) || !slices.Equal(got.RowPtr, want.RowPtr) {
			return fmt.Errorf("rank %d: pattern differs", c.Rank())
		}
		for k := range want.Val {
			if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
				return fmt.Errorf("rank %d value %d = %v, want %v", c.Rank(), k, got.Val[k], want.Val[k])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRebuildWorkersSerial: the serial rebuild copies unchanged rows and
// matches a from-scratch build bit for bit.
func TestRebuildWorkersSerial(t *testing.T) {
	a := matgen.Poisson2D(12, 12)
	s := LowerPattern(a)
	prev, err := BuildWorkers(a, widen(s), 0)
	if err != nil {
		t.Fatal(err)
	}
	filtered := FilterPattern(prev, 0.2)
	want, err := BuildWorkers(a, filtered, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, reused, err := RebuildWorkers(a, prev, filtered, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reused == 0 || reused == a.Rows {
		t.Fatalf("reused %d of %d rows; the test wants a mix", reused, a.Rows)
	}
	for k := range want.Val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			t.Fatalf("value %d = %v, want %v", k, got.Val[k], want.Val[k])
		}
	}
}
