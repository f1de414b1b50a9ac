package fsai

import (
	"fmt"
	"math"
	"slices"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
)

// PowerPatternDist computes this rank's rows of the level-N FSAI pattern —
// the lower triangle of pattern(Ã^N) with guaranteed diagonal, where Ã
// drops entries below tau in the scale-independent comparison
// |a_ij| < tau·sqrt(|a_ii|·|a_jj|) — on a distributed matrix. aRows holds
// the rank's rows of A with global columns over [lo, hi).
//
// The symbolic expansion needs remote pattern rows: level k+1 unions, for
// every column of the current pattern, that column's row of Ã. Those rows
// are fetched from their owners once per level (setup-phase communication,
// like the paper's construction of higher sparse levels). Collective.
func PowerPatternDist(c *simmpi.Comm, l *distmat.Layout, aRows *sparse.CSR, lo, hi, level int, tau float64) (*DistRows, error) {
	if level < 1 {
		return nil, fmt.Errorf("fsai: pattern level %d < 1", level)
	}
	// Thresholding needs the global diagonal for the scale-independent
	// comparison; gather it once.
	nl := hi - lo
	localDiag := make([]float64, nl)
	for li := 0; li < nl; li++ {
		cols, vals := aRows.Row(li)
		for k, col := range cols {
			if col == lo+li {
				localDiag[li] = vals[k]
			}
		}
	}
	diag := simmpi.Allgather(c, localDiag)

	// Thresholded local rows of Ã (pattern only), diagonal guaranteed.
	at := thresholdRows(aRows, lo, diag, tau)

	// cur[li] = sorted global columns of pattern row li.
	cur := make([][]int, nl)
	for li := 0; li < nl; li++ {
		cur[li] = append([]int(nil), at.Row(li)...)
	}

	for lvl := 1; lvl < level; lvl++ {
		// Gather the Ã-rows of every column currently referenced
		// (GatherRemoteRows keeps the remote ones and drops the repeats).
		var need []int
		for _, row := range cur {
			need = append(need, row...)
		}
		// GatherRemoteRows works on valued matrices; wrap the thresholded
		// pattern as a zero-valued CSR.
		rows := distmat.GatherRemoteRows(c, l, lo, hi, patternAsCSR(at), need)
		next := make([][]int, nl)
		for li := 0; li < nl; li++ {
			var row []int
			for _, k := range cur[li] {
				rc, _ := rows.Row(k)
				row = append(row, rc...)
			}
			slices.Sort(row)
			next[li] = slices.Compact(row)
		}
		cur = next
	}

	// Lower triangle + diagonal.
	rowSets := make([][]int, nl)
	for li := 0; li < nl; li++ {
		gi := lo + li
		var set []int
		hasDiag := false
		for _, g := range cur[li] {
			if g <= gi {
				set = append(set, g)
				if g == gi {
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
		Lo: lo, Hi: hi,
		Pattern: sparse.PatternFromRows(nl, l.N, rowSets),
	}, nil
}

// thresholdRows returns the pattern of the rank's rows of Ã: entries kept
// when |a_ij| ≥ tau·sqrt(|a_ii|·|a_jj|), diagonal always present.
func thresholdRows(aRows *sparse.CSR, lo int, diag []float64, tau float64) *sparse.Pattern {
	nl := aRows.Rows
	rowSets := make([][]int, nl)
	for li := 0; li < nl; li++ {
		gi := lo + li
		cols, vals := aRows.Row(li)
		var set []int
		hasDiag := false
		for k, g := range cols {
			keep := g == gi
			if !keep {
				scale := sqrtAbs(diag[gi]) * sqrtAbs(diag[g])
				keep = abs(vals[k]) >= tau*scale
			}
			if keep {
				set = append(set, g)
				if g == gi {
					hasDiag = true
				}
			}
		}
		if !hasDiag {
			set = append(set, gi)
		}
		rowSets[li] = set
	}
	return sparse.PatternFromRows(nl, aRows.Cols, rowSets)
}

func patternAsCSR(p *sparse.Pattern) *sparse.CSR {
	return &sparse.CSR{
		Rows:   p.Rows,
		Cols:   p.Cols,
		RowPtr: append([]int(nil), p.RowPtr...),
		ColIdx: append([]int(nil), p.ColIdx...),
		Val:    make([]float64, p.NNZ()),
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func sqrtAbs(x float64) float64 {
	return math.Sqrt(abs(x))
}
