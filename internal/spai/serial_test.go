package spai

import (
	"fmt"

	"fsaicomm/internal/parallel"
	"fsaicomm/internal/sparse"
)

// enrich runs the per-column adaptive loop: while the residual is above
// epsilon and candidates remain, add the most profitable entries and
// re-solve. The distributed build runs the same logic round by round across
// columns to keep its gathers collective.
func (col *column) enrich(aRow, atRow rowFn, colNorm2 []float64, opt Options, buf *scratch) error {
	for step := 0; step < opt.Steps; step++ {
		col.done = col.rnorm <= opt.Epsilon
		if col.done || col.stalled {
			return nil
		}
		ks := col.scoreCandidates(col.candidateSet(aRow, buf), atRow, colNorm2, opt.Add)
		if len(ks) == 0 {
			col.stalled = true
			return nil
		}
		col.J = mergeSorted(col.J, ks)
		col.I = buildShadow(col.j, col.J, atRow)
		if err := col.solve(atRow, buf); err != nil {
			return err
		}
	}
	col.done = col.rnorm <= opt.Epsilon
	return nil
}

// Build computes the SPAI right approximate inverse M ≈ A⁻¹ of the square
// matrix a on one process: the serial reference BuildDist is held to bit for
// bit. The result has one column per adaptive per-column pattern; A·M ≈ I in
// the Frobenius sense. Bit-identical for every worker count.
func Build(a *sparse.CSR, opt Options) (*sparse.CSR, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("spai: matrix %dx%d not square", a.Rows, a.Cols)
	}
	opt = opt.withDefaults()
	n := a.Rows
	at := a.Transpose()
	atRow := func(k int) ([]int, []float64) { return at.Row(k) }
	aRow := func(i int) ([]int, []float64) { return a.Row(i) }
	// ‖A·e_k‖² for the profitability denominators, summed in ascending row
	// order (the distributed build reproduces this order exactly through
	// the rank-ordered allreduce).
	colNorm2 := make([]float64, n)
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		for t, k := range cols {
			colNorm2[k] += vals[t] * vals[t]
		}
	}
	// Initial pattern: rows of (structure(Aᵀ)+I)^Level = columns of
	// (structure(A)+I)^Level.
	pat := sparse.PatternPowerWorkers(at, opt.Level, opt.Workers)

	cols := make([]*column, n)
	err := parallel.For(opt.Workers, n, func(lo, hi int) error {
		buf := newScratch()
		for j := lo; j < hi; j++ {
			col := &column{j: j, J: append([]int(nil), pat.Row(j)...)}
			col.I = buildShadow(j, col.J, atRow)
			if err := col.solve(atRow, buf); err != nil {
				return err
			}
			if err := col.enrich(aRow, atRow, colNorm2, opt, buf); err != nil {
				return err
			}
			cols[j] = col
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return assembleTranspose(cols, n, n).Transpose(), nil
}
