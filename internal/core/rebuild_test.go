package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/fsai"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
)

// sameBits reports the first difference between two factors, comparing
// structure exactly and values bit for bit.
func sameBits(got, want *sparse.CSR) error {
	if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
		return fmt.Errorf("patterns differ (%d vs %d entries)", got.NNZ(), want.NNZ())
	}
	for k := range want.Val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			return fmt.Errorf("value %d = %v, want %v", k, got.Val[k], want.Val[k])
		}
	}
	return nil
}

// TestFilterRebuildEqualsFromScratch: for every filter and strategy the
// factor FilterRebuild returns — rows copied from the extended-pattern
// factor where the filter left the pattern alone, solved elsewhere — is bit
// for bit the factor RebuildDistWorkers computes from scratch on the filtered
// pattern, and the reused/solved counts add up. At filter 0 nothing is
// solved twice; at 0.5 something is.
func TestFilterRebuildEqualsFromScratch(t *testing.T) {
	a := matgen.CFDDiffusion(24, 24, 500, 3)
	const nranks = 3
	pa, l := distSetup(t, a, nranks)
	for _, strategy := range []FilterStrategy{StaticFilter, DynamicFilter} {
		for _, filter := range []float64{0, 0.01, 0.05, 0.5} {
			reused := make([]int, nranks)
			solved := make([]int, nranks)
			_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
				lo, hi := l.Range(c.Rank())
				aRows := distmat.ExtractLocalRows(pa, lo, hi)
				s := LowerPatternDist(aRows, lo)
				lz := distmat.Localize(lo, hi, PatternCSR(s))
				ext, _, err := ExtendPattern(l, s, lz, ExtendOptions{LineBytes: 64, CommAware: true})
				if err != nil {
					return err
				}
				gExt, _, err := fsai.RebuildDistWorkers(c, l, aRows, nil, ext, 1)
				if err != nil {
					return err
				}
				g, st, err := FilterRebuild(c, l, aRows, gExt, s.Pattern, filter, strategy, 2)
				if err != nil {
					return err
				}
				// The same steps without reuse.
				f := filter
				if strategy == DynamicFilter {
					f = DynamicFilterValue(c, gExt, lo, filter, s.Pattern)
				}
				if f != st.FilterUsed {
					return fmt.Errorf("rank %d: FilterUsed %g, want %g", c.Rank(), st.FilterUsed, f)
				}
				want, _, err := fsai.RebuildDistWorkers(c, l, aRows, nil, fsai.FilterDist(gExt, lo, hi, f, s.Pattern), 1)
				if err != nil {
					return err
				}
				if err := sameBits(g, want); err != nil {
					return fmt.Errorf("rank %d: %w", c.Rank(), err)
				}
				if st.RowsReused+st.RowsSolved != hi-lo {
					return fmt.Errorf("rank %d: %d reused + %d solved, have %d rows", c.Rank(), st.RowsReused, st.RowsSolved, hi-lo)
				}
				reused[c.Rank()], solved[c.Rank()] = st.RowsReused, st.RowsSolved
				return nil
			})
			if err != nil {
				t.Fatalf("%v filter %g: %v", strategy, filter, err)
			}
			totalSolved := 0
			for _, n := range solved {
				totalSolved += n
			}
			// The dynamic strategy never runs with a filter of 0: it seeds its
			// bisection from 1e-8, which may already drop an entry.
			if filter == 0 && strategy == StaticFilter && totalSolved != 0 {
				t.Errorf("static filter 0: %v rows solved twice (reused %v)", solved, reused)
			}
			if filter == 0.5 && totalSolved == 0 {
				t.Errorf("%v filter 0.5: no row was re-solved (reused %v)", strategy, reused)
			}
		}
	}
}

// TestFilterRebuildAtZeroMovesNoRows: with a filter that removes nothing,
// the rebuild copies every row and its collective row gather carries no
// point-to-point payload at all — the count exchange is all that remains.
func TestFilterRebuildAtZeroMovesNoRows(t *testing.T) {
	a := matgen.Poisson2D(20, 20)
	const nranks = 4
	pa, l := distSetup(t, a, nranks)
	_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		aRows := distmat.ExtractLocalRows(pa, lo, hi)
		s := LowerPatternDist(aRows, lo)
		lz := distmat.Localize(lo, hi, PatternCSR(s))
		ext, _, err := ExtendPattern(l, s, lz, ExtendOptions{LineBytes: 64, CommAware: true})
		if err != nil {
			return err
		}
		gExt, _, err := fsai.RebuildDistWorkers(c, l, aRows, nil, ext, 1)
		if err != nil {
			return err
		}
		c.Barrier()
		before := c.Meter().TotalP2PBytes()
		c.Barrier()
		g, st, err := FilterRebuild(c, l, aRows, gExt, s.Pattern, 0, StaticFilter, 1)
		if err != nil {
			return err
		}
		c.Barrier()
		if moved := c.Meter().TotalP2PBytes() - before; moved != 0 {
			return fmt.Errorf("rank %d: the rebuild moved %d bytes of rows", c.Rank(), moved)
		}
		if st.RowsSolved != 0 || st.RowsReused != hi-lo {
			return fmt.Errorf("rank %d: %d reused, %d solved", c.Rank(), st.RowsReused, st.RowsSolved)
		}
		return sameBits(g, gExt)
	})
	if err != nil {
		t.Fatal(err)
	}
}
