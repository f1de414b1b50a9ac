// Package fsai implements the Factorized Sparse Approximate Inverse
// preconditioner (Kolotilina–Yeremin 1993; Chow 2001), the baseline of the
// paper. Given an SPD matrix A and a lower-triangular sparse pattern S with
// full diagonal, it computes the factor G with pattern S minimizing
// ‖I − G·L‖_F (L the Cholesky factor of A), normalized so that
// diag(G·A·Gᵀ) = 1, so that Gᵀ·G ≈ A⁻¹.
//
// Each row is independent: solve A(S_i,S_i)·y = e_pos(i) and set
// g_i = y/√y_pos — the textbook recipe that never forms L. Rows are tiny
// dense SPD systems solved with internal/dense (the paper used MKL/OpenBLAS
// here), by Cholesky on a packed lower triangle that each worker chunk
// carries from row to row: a row reuses the factor's rows over the leading
// columns its pattern shares with the last row solved (rowSolver). The rows
// it does factor are gathered from A by a merge walk, or by replaying a
// GatherPlan made once from the structure (plan.go).
//
// The distributed build mirrors the paper's MPI implementation: each process
// owns a block of rows of A and of S; the rows of A needed for halo columns
// of S are fetched once from their owners during setup.
package fsai

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"fsaicomm/internal/dense"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/parallel"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
)

// LowerPattern returns the paper's baseline FSAI pattern: the lower
// triangular part of A's sparsity pattern with the diagonal guaranteed.
func LowerPattern(a *sparse.CSR) *sparse.Pattern {
	return sparse.PatternOf(a).LowerTriangle().WithDiagonal()
}

// Build computes the FSAI factor G of A on the lower-triangular pattern s,
// using all available cores. The returned matrix has exactly the pattern s.
func Build(a *sparse.CSR, s *sparse.Pattern) (*sparse.CSR, error) {
	return BuildWorkers(a, s, 0)
}

// BuildWorkers is Build with an explicit worker count (<= 0 selects
// GOMAXPROCS). Every row of G is an independent small dense SPD solve
// writing a disjoint slice of g.Val, so the result is bit-identical for
// every worker count — parallelism only changes wall-clock time.
func BuildWorkers(a *sparse.CSR, s *sparse.Pattern, workers int) (*sparse.CSR, error) {
	g, _, err := RebuildWorkers(a, nil, s, workers)
	return g, err
}

// RebuildWorkers computes the factor on pattern s given prev, a factor of
// the same matrix on another pattern (nil for none): a row whose pattern is
// the same in prev and s is copied, every other row is solved. Copying is
// exact — a row of G depends on A and on that row's pattern alone, so the
// same pattern means the same sub-matrix, the same Cholesky and the same
// bits. It also returns how many rows were copied.
func RebuildWorkers(a *sparse.CSR, prev *sparse.CSR, s *sparse.Pattern, workers int) (*sparse.CSR, int, error) {
	if a.Rows != a.Cols {
		return nil, 0, fmt.Errorf("fsai: matrix %dx%d not square", a.Rows, a.Cols)
	}
	if s.Rows != a.Rows || s.Cols != a.Cols {
		return nil, 0, fmt.Errorf("fsai: pattern shape %dx%d does not match matrix", s.Rows, s.Cols)
	}
	if prev != nil && prev.Rows != s.Rows {
		return nil, 0, fmt.Errorf("fsai: previous factor has %d rows, pattern has %d", prev.Rows, s.Rows)
	}
	return buildRows(distmat.LocalRows(a), s, 0, prev, nil, workers)
}

// sameRow reports whether row li of prev has exactly the pattern s gives it.
func sameRow(prev *sparse.CSR, s *sparse.Pattern, li int) bool {
	if prev == nil {
		return false
	}
	pc, _ := prev.Row(li)
	return slices.Equal(pc, s.Row(li))
}

// buildRows is the row loop shared by every build: rows [lo, lo+s.Rows) of
// the factor on pattern s (global columns), row li copied from prev where
// sameRow holds and solved otherwise. src serves the rows of A the solves
// read: the whole matrix in the serial build, a rank's block plus its
// gathered halo rows in the distributed one. It returns the factor and the
// number of copied rows. The factor shares the pattern's index arrays, which
// are read-only like every pattern: only its values are new. plan, a
// GatherPlan made for s on src's structure, or nil, says where the solves'
// gathers write: without it they walk src's rows.
func buildRows(src *distmat.GatheredRows, s *sparse.Pattern, lo int, prev *sparse.CSR, plan *GatherPlan, workers int) (*sparse.CSR, int, error) {
	g := &sparse.CSR{
		Rows:   s.Rows,
		Cols:   s.Cols,
		RowPtr: s.RowPtr,
		ColIdx: s.ColIdx,
		Val:    make([]float64, s.NNZ()),
	}
	var reused atomic.Int64
	err := parallel.For(workers, s.Rows, func(clo, chi int) error {
		// Scratch is per chunk: workers never share mutable state.
		var rs rowSolver
		copied := 0
		for li := clo; li < chi; li++ {
			cols := s.Row(li)
			if err := checkRowPattern(lo+li, cols); err != nil {
				return err
			}
			out := g.Val[g.RowPtr[li]:g.RowPtr[li+1]]
			if sameRow(prev, s, li) {
				_, pv := prev.Row(li)
				copy(out, pv)
				copied++
				continue
			}
			if err := rs.solve(src, lo+li, cols, out, plan, li); err != nil {
				return err
			}
		}
		reused.Add(int64(copied))
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return g, int(reused.Load()), nil
}

func checkRowPattern(i int, cols []int) error {
	if len(cols) == 0 {
		return fmt.Errorf("fsai: row %d has empty pattern", i)
	}
	last := cols[len(cols)-1]
	if last != i {
		return fmt.Errorf("fsai: row %d pattern must end at the diagonal, ends at %d", i, last)
	}
	return nil
}

// rowSolver solves one worker chunk's rows. It keeps the packed factor of
// A(last, last), the restriction of the last row it solved; row r of it
// depends on last[:r+1] alone, so a row whose pattern starts with the same
// p columns factors rows [p, m) only. Consecutive rows of an extended
// pattern mostly share all but their last column. The bits are those of a
// factorization from scratch.
type rowSolver struct {
	l, inv []float64 // packed factor of A(last, last) and its inverse pivots
	last   []int     // the pattern l was factored for; nil if none
}

// solve writes into out row i of G, whose sorted pattern cols ends at i: it
// solves A(cols, cols)·y = e_{m-1} — the diagonal comes last because the
// pattern is lower triangular — and scales y by 1/√y_{m-1}. With a plan,
// cols is row li of the pattern the plan was made for, and the plan fills
// the rows of A(cols, cols) after the prefix row li shares with row li−1.
func (rs *rowSolver) solve(src *distmat.GatheredRows, i int, cols []int, out []float64, plan *GatherPlan, li int) error {
	m := len(cols)
	p := sharedPrefix(rs.last, cols)
	if need := m * (m + 1) / 2; len(rs.l) < need {
		rs.l = append(rs.l, make([]float64, need-len(rs.l))...)
		rs.inv = append(rs.inv, make([]float64, m-len(rs.inv))...)
	}
	// A row that fails leaves rows [p, m) half done, of no pattern's factor.
	rs.last = nil
	q := m
	if plan != nil {
		q = plan.replay(li, p, m, rs.l, src.Values())
	}
	gatherRows(src, cols, p, q, rs.l)
	if err := dense.CholeskyPackedFrom(rs.l, rs.inv, p, m); err != nil {
		return fmt.Errorf("fsai: row %d local system: %w", i, err)
	}
	rs.last = cols
	dense.SolvePackedLast(rs.l, m, out)
	yd := out[m-1]
	if yd <= 0 || math.IsNaN(yd) {
		return fmt.Errorf("fsai: row %d produced non-positive diagonal %g", i, yd)
	}
	scale := 1 / math.Sqrt(yd)
	for k := range out {
		out[k] *= scale
	}
	return nil
}

// gatherRows writes rows [p, end) of the restriction A(cols, cols) into the
// packed lower triangle l: row r, over columns cols[:r+1], at r(r+1)/2.
// cols is sorted and so is each row's stored columns, so a merge walk
// fills row r in O(row nnz + r), with +0 where A stores nothing.
func gatherRows(src *distmat.GatheredRows, cols []int, p, end int, l []float64) {
	o := p * (p + 1) / 2
	for r := p; r < end; r++ {
		rc, rv := src.Row(cols[r])
		row := l[o : o+r+1]
		a := 0
		for b, c := range cols[:len(row)] {
			for a < len(rc) && rc[a] < c {
				a++
			}
			v := 0.0
			if a < len(rc) && rc[a] == c {
				v = rv[a]
				a++
			}
			row[b] = v
		}
		o += r + 1
	}
}

// DistRows is a rank's block of a distributed lower-triangular pattern:
// local rows [Lo,Hi) with global column indices.
type DistRows struct {
	Lo, Hi  int
	Pattern *sparse.Pattern // Rows = Hi-Lo, Cols = global n
}

// Validate checks the lower-triangular + diagonal invariants.
func (d *DistRows) Validate() error {
	if d.Pattern.Rows != d.Hi-d.Lo {
		return fmt.Errorf("fsai: DistRows has %d rows, want %d", d.Pattern.Rows, d.Hi-d.Lo)
	}
	for li := 0; li < d.Pattern.Rows; li++ {
		cols := d.Pattern.Row(li)
		gi := d.Lo + li
		if len(cols) == 0 || cols[len(cols)-1] != gi {
			return fmt.Errorf("fsai: global row %d pattern must end at its diagonal", gi)
		}
	}
	return nil
}

// RebuildDistWorkers is the distributed RebuildWorkers: this rank's rows of
// the factor on pattern s, copying from prev (this rank's rows of a factor
// of the same matrix on another pattern, or nil) every row whose pattern is
// unchanged and solving the rest. aRows holds the rank's rows of A (global
// columns). Only the rows that are solved contribute to the halo row gather,
// so a rank that copies everything fetches nothing — but it still takes part
// in the gather, which is collective: ranks may differ in how many rows they
// copy. It also returns the copied-row count. workers is the per-rank worker
// count for the local row solves (<= 0 selects GOMAXPROCS): the halo row
// gather stays on the rank goroutine, only the row loop fans out, and the
// result is bit-identical for every worker count.
func RebuildDistWorkers(c *simmpi.Comm, l *distmat.Layout, aRows *sparse.CSR, prev *sparse.CSR, s *DistRows, workers int) (*sparse.CSR, int, error) {
	if err := s.Validate(); err != nil {
		return nil, 0, err
	}
	if prev != nil && prev.Rows != s.Pattern.Rows {
		return nil, 0, fmt.Errorf("fsai: previous factor has %d rows, pattern has %d", prev.Rows, s.Pattern.Rows)
	}
	rows := distmat.GatherRemoteRows(c, l, s.Lo, s.Hi, aRows, RemoteColumns(s, prev))
	return buildRows(rows, s.Pattern, s.Lo, prev, nil, workers)
}

// RemoteColumns lists the rows of A a build on s reads beyond the rank's own
// block: the restriction A(S_i,S_i) reads row k of A for each k ∈ S_i, so
// these are the halo columns of every row that is solved — all of them, or
// with prev those whose pattern differs from prev's. Repeats are left in
// (the gather sorts the list and drops them).
func RemoteColumns(s *DistRows, prev *sparse.CSR) []int {
	var need []int
	for li := 0; li < s.Pattern.Rows; li++ {
		if sameRow(prev, s.Pattern, li) {
			continue
		}
		for _, g := range s.Pattern.Row(li) {
			if g < s.Lo || g >= s.Hi {
				need = append(need, g)
			}
		}
	}
	return need
}

// BuildGathered is RebuildDistWorkers with no previous factor on rows of A
// that are already here: src must serve the rank's block and every row
// RemoteColumns(s, nil) names. It communicates nothing. plan is nil or
// PlanGather's plan for s on src's structure; with it the row solves
// replay their gathers instead of walking src's rows.
func BuildGathered(src *distmat.GatheredRows, s *DistRows, plan *GatherPlan, workers int) (*sparse.CSR, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if plan != nil && (plan.s != s.Pattern || plan.nvals != src.Len()) {
		return nil, fmt.Errorf("fsai: gather plan made for another pattern or other rows of A")
	}
	g, _, err := buildRows(src, s.Pattern, s.Lo, nil, plan, workers)
	return g, err
}

// FilterDist applies the paper's value filtering to a rank's local rows of
// G (global columns), returning the filtered DistRows pattern. Entries of
// the protected base pattern (the original S being extended; Algorithm 2
// filters "entries of S_ext", i.e. extension candidates only) and the
// diagonal always survive; other entries survive when
// |g_ij| ≥ filter·|g_ii|. base may be nil to filter every off-diagonal.
func FilterDist(g *sparse.CSR, lo, hi int, filter float64, base *sparse.Pattern) *DistRows {
	p := &sparse.Pattern{
		Rows: g.Rows, Cols: g.Cols,
		RowPtr: make([]int, g.Rows+1),
		ColIdx: make([]int, 0, CountFilteredDist(g, lo, filter, base)),
	}
	for li := 0; li < g.Rows; li++ {
		gi := lo + li
		cols, vals := g.Row(li)
		diag := 0.0
		for k, c := range cols {
			if c == gi {
				diag = math.Abs(vals[k])
			}
		}
		var prot []int
		if base != nil {
			prot = base.Row(li)
		}
		pi := 0
		for k, c := range cols {
			for pi < len(prot) && prot[pi] < c {
				pi++
			}
			protected := pi < len(prot) && prot[pi] == c
			if c == gi || protected || math.Abs(vals[k]) >= filter*diag {
				p.ColIdx = append(p.ColIdx, c)
			}
		}
		p.RowPtr[li+1] = len(p.ColIdx)
	}
	return &DistRows{Lo: lo, Hi: hi, Pattern: p}
}

// CountFilteredDist counts the entries FilterDist would keep, without
// materializing the pattern. Used by the dynamic-filter bisection.
func CountFilteredDist(g *sparse.CSR, lo int, filter float64, base *sparse.Pattern) int {
	n := 0
	for li := 0; li < g.Rows; li++ {
		gi := lo + li
		cols, vals := g.Row(li)
		diag := 0.0
		for k, c := range cols {
			if c == gi {
				diag = math.Abs(vals[k])
			}
		}
		var prot []int
		if base != nil {
			prot = base.Row(li)
		}
		pi := 0
		for k, c := range cols {
			for pi < len(prot) && prot[pi] < c {
				pi++
			}
			protected := pi < len(prot) && prot[pi] == c
			if c == gi || protected || math.Abs(vals[k]) >= filter*diag {
				n++
			}
		}
	}
	return n
}
