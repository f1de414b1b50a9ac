// Package spai implements the column-oriented Grote–Huckle SParse
// Approximate Inverse preconditioner (SIAM J. Sci. Comput. 1997) for
// general nonsymmetric matrices — the right approximate inverse M ≈ A⁻¹
// minimizing ‖A·M − I‖_F column by column. Each column j solves the small
// dense least-squares problem
//
//	min ‖A(:,J)·m̂ − e_j‖₂ over the pattern J,
//
// restricted to the shadow rows I = {i : A(i,J) ≠ 0}, by Householder QR
// (internal/dense). The initial pattern is the level-p power pattern of Aᵀ
// (columns of A^p); optional adaptive enrichment then augments J with the
// most profitable candidates by the Grote–Huckle criterion — the entries k
// maximizing (rᵀA·e_k)²/‖A·e_k‖² for the column's residual r — and
// re-solves, until the residual drops below Epsilon or Steps rounds have
// run. Columns are independent, so the build is column-parallel via
// internal/parallel and bit-identical for every worker count.
//
// The build is distributed like the FSAI one: each rank owns a block of
// rows of A and builds the matching block of columns of M (rows of Mᵀ),
// gathering remote rows of Aᵀ (for shadow assembly) and of A (for
// enrichment candidates) from their owners with the same setup-phase
// collectives. Every rank runs the same number of gather rounds whether or
// not it has active columns, so the collective schedule is rank-uniform,
// and the per-column dense subproblems are assembled in the same order as a
// one-process column loop would — the result is bitwise identical to it at
// every rank count (the tests keep that loop as the serial reference).
package spai

import (
	"fmt"
	"math"
	"sort"

	"fsaicomm/internal/dense"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/parallel"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
)

// Options controls a SPAI build.
type Options struct {
	// Level is the power-pattern level of the initial pattern: column j
	// starts from the sparsity of column j of (structure(A)+I)^Level.
	// 0 means 1 (the pattern of A itself).
	Level int
	// Steps is the number of adaptive enrichment rounds per column; 0
	// disables adaptivity (static-pattern SPAI).
	Steps int
	// Add is the maximum number of pattern entries added per column per
	// enrichment round. 0 means 5.
	Add int
	// Epsilon is the per-column residual target ‖A(:,J)m̂ − e_j‖₂ at which
	// enrichment stops early. 0 means 0.4.
	Epsilon float64
	// Workers is the column-solve worker count (<= 0 selects GOMAXPROCS).
	// Results are bit-identical for every worker count.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Level <= 0 {
		o.Level = 1
	}
	if o.Add <= 0 {
		o.Add = 5
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 0.4
	}
	if o.Steps < 0 {
		o.Steps = 0
	}
	return o
}

// rowFn returns the sorted global column indices and values of row k of
// some matrix — Aᵀ for shadow/pattern work, A for candidate discovery —
// read from the rank's rows and the gathered row maps.
type rowFn func(k int) ([]int, []float64)

// column is the per-column solve state.
type column struct {
	j       int       // global column index of M
	J       []int     // sorted pattern (row indices of column j of M)
	I       []int     // sorted shadow rows {i : A(i,J) ≠ 0} ∪ {j}
	mhat    []float64 // least-squares solution over J
	r       []float64 // residual A(:,J)m̂ − e_j over I
	rnorm   float64
	done    bool // residual below epsilon
	stalled bool // no profitable candidates left
}

// buildShadow computes the sorted shadow-row set I = ∪_{k∈J} supp(A·e_k)
// ∪ {j}; row k of Aᵀ lists exactly the rows of A with a nonzero in column
// k.
func buildShadow(j int, J []int, atRow rowFn) []int {
	seen := map[int]bool{j: true}
	out := []int{j}
	for _, k := range J {
		cols, _ := atRow(k)
		for _, i := range cols {
			if !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
	}
	sort.Ints(out)
	return out
}

// solve assembles the |I|×|J| restriction Â = A(I,J) column-wise from rows
// of Aᵀ, solves the least-squares problem, and stores the solution and its
// residual. buf supplies reusable scratch.
func (col *column) solve(atRow rowFn, buf *scratch) error {
	nI, nJ := len(col.I), len(col.J)
	ipos := buf.ipos
	for k := range ipos {
		delete(ipos, k)
	}
	for p, i := range col.I {
		ipos[i] = p
	}
	ahat := growF(&buf.ahat, nI*nJ)
	for k := range ahat {
		ahat[k] = 0
	}
	for jj, k := range col.J {
		cols, vals := atRow(k)
		for t, gi := range cols {
			ahat[ipos[gi]*nJ+jj] = vals[t]
		}
	}
	// QR overwrites its inputs; keep Â and ê for the residual.
	qa := growF(&buf.qa, nI*nJ)
	copy(qa, ahat)
	qb := growF(&buf.qb, nI)
	for k := range qb {
		qb[k] = 0
	}
	jp := ipos[col.j]
	qb[jp] = 1
	col.mhat = growF(&col.mhat, nJ)
	if err := dense.QRLeastSquares(qa, nI, nJ, qb, col.mhat); err != nil {
		return fmt.Errorf("spai: column %d (|I|=%d, |J|=%d): %w", col.j, nI, nJ, err)
	}
	col.r = growF(&col.r, nI)
	ssq := 0.0
	for i := 0; i < nI; i++ {
		s := 0.0
		row := ahat[i*nJ : (i+1)*nJ]
		for jj := range row {
			s += row[jj] * col.mhat[jj]
		}
		if i == jp {
			s -= 1
		}
		col.r[i] = s
		ssq += s * s
	}
	col.rnorm = math.Sqrt(ssq)
	if nonfinite(col.rnorm) {
		return fmt.Errorf("spai: column %d residual not finite (%g)", col.j, col.rnorm)
	}
	return nil
}

// candidateSet enumerates the structural enrichment candidates of the
// column: every k ∉ J appearing in a row A(i,·) with i ∈ I and r_i ≠ 0,
// sorted ascending. The distributed build gathers the Aᵀ rows of this set
// before scoring.
func (col *column) candidateSet(aRow rowFn, buf *scratch) []int {
	inJ := buf.ipos // reuse the map slot; rebuilt next solve anyway
	for k := range inJ {
		delete(inJ, k)
	}
	for _, k := range col.J {
		inJ[k] = 1
	}
	seen := map[int]bool{}
	var cand []int
	for p, i := range col.I {
		if col.r[p] == 0 {
			continue
		}
		cols, _ := aRow(i)
		for _, k := range cols {
			if _, ok := inJ[k]; !ok && !seen[k] {
				seen[k] = true
				cand = append(cand, k)
			}
		}
	}
	sort.Ints(cand)
	return cand
}

// scoreCandidates ranks the candidates by the Grote–Huckle profitability
// ρ_k = (rᵀA·e_k)²/‖A·e_k‖² and returns the top add of them, sorted
// ascending. Ties break toward the smaller index, so the selection is
// deterministic.
func (col *column) scoreCandidates(cand []int, atRow rowFn, colNorm2 []float64, add int) []int {
	if len(cand) == 0 {
		return nil
	}
	ipos := map[int]int{}
	for p, i := range col.I {
		ipos[i] = p
	}
	type scored struct {
		k   int
		rho float64
	}
	var sc []scored
	for _, k := range cand {
		if colNorm2[k] == 0 {
			continue
		}
		cols, vals := atRow(k)
		numer := 0.0
		for t, i := range cols {
			if p, ok := ipos[i]; ok {
				numer += col.r[p] * vals[t]
			}
		}
		if numer == 0 || nonfinite(numer) {
			continue
		}
		sc = append(sc, scored{k: k, rho: numer * numer / colNorm2[k]})
	}
	if len(sc) == 0 {
		return nil
	}
	sort.Slice(sc, func(a, b int) bool {
		if sc[a].rho != sc[b].rho {
			return sc[a].rho > sc[b].rho
		}
		return sc[a].k < sc[b].k
	})
	if len(sc) > add {
		sc = sc[:add]
	}
	out := make([]int, len(sc))
	for t, s := range sc {
		out[t] = s.k
	}
	sort.Ints(out)
	return out
}

// mergeSorted merges the sorted new entries into the sorted pattern.
func mergeSorted(j, add []int) []int {
	out := make([]int, 0, len(j)+len(add))
	a, b := 0, 0
	for a < len(j) || b < len(add) {
		switch {
		case b == len(add) || (a < len(j) && j[a] < add[b]):
			out = append(out, j[a])
			a++
		case a == len(j) || add[b] < j[a]:
			out = append(out, add[b])
			b++
		default:
			out = append(out, j[a])
			a++
			b++
		}
	}
	return out
}

// scratch is per-worker reusable storage for the dense subproblems.
type scratch struct {
	ahat, qa, qb []float64
	ipos         map[int]int
}

func newScratch() *scratch { return &scratch{ipos: map[int]int{}} }

func growF(v *[]float64, n int) []float64 {
	if cap(*v) < n {
		*v = make([]float64, n)
	}
	*v = (*v)[:n]
	return *v
}

func nonfinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// assembleTranspose packs per-column states into the CSR whose row t is
// column cols[t] of M — i.e. the local rows of Mᵀ.
func assembleTranspose(cols []*column, rows, n int) *sparse.CSR {
	mt := &sparse.CSR{Rows: rows, Cols: n, RowPtr: make([]int, rows+1)}
	nnz := 0
	for _, col := range cols {
		nnz += len(col.J)
	}
	mt.ColIdx = make([]int, 0, nnz)
	mt.Val = make([]float64, 0, nnz)
	for t, col := range cols {
		mt.ColIdx = append(mt.ColIdx, col.J...)
		mt.Val = append(mt.Val, col.mhat...)
		mt.RowPtr[t+1] = len(mt.ColIdx)
	}
	return mt
}

// BuildDist computes this rank's rows of the SPAI approximate inverse M on
// the row layout l: the rank owning rows [lo,hi) of A builds columns
// [lo,hi) of M and receives rows [lo,hi) of M through a distributed
// transpose. Collective; the gather/transpose schedule is rank-uniform
// (every rank participates in the same collectives, with empty requests
// when it has no active columns), and the result is bitwise identical to
// the serial build restricted to these rows.
func BuildDist(c *simmpi.Comm, l *distmat.Layout, lo, hi int, aRows *sparse.CSR, opt Options) (*sparse.CSR, error) {
	opt = opt.withDefaults()
	n := l.N
	atRows := distmat.TransposeDist(c, l, lo, hi, aRows)

	// Global profitability denominators ‖A·e_k‖², reduced in rank order so
	// the sum order matches the serial ascending-row sweep bitwise.
	partial := make([]float64, n)
	for li := 0; li < aRows.Rows; li++ {
		cols, vals := aRows.Row(li)
		for t, k := range cols {
			partial[k] += vals[t] * vals[t]
		}
	}
	colNorm2 := simmpi.Allreduce(c, simmpi.Sum, partial...)

	// atCache maps global k to row k of Aᵀ; aCache maps global i to row i
	// of A. Local rows seed the caches; gathers fill the rest on demand.
	type rowData struct {
		Cols []int
		Vals []float64
	}
	atCache := map[int]rowData{}
	for li := 0; li < atRows.Rows; li++ {
		rc, rv := atRows.Row(li)
		atCache[lo+li] = rowData{Cols: rc, Vals: rv}
	}
	aCache := map[int]rowData{}
	atRow := func(k int) ([]int, []float64) {
		rd, ok := atCache[k]
		if !ok {
			panic(fmt.Sprintf("spai: missing gathered row %d of At", k))
		}
		return rd.Cols, rd.Vals
	}
	aRow := func(i int) ([]int, []float64) {
		rd, ok := aCache[i]
		if !ok {
			panic(fmt.Sprintf("spai: missing gathered row %d of A", i))
		}
		return rd.Cols, rd.Vals
	}
	gatherAt := func(want []int) {
		got := distmat.GatherRemoteRows(c, l, lo, hi, atRows, want)
		for _, k := range want {
			rc, rv := got.Row(k)
			atCache[k] = rowData{Cols: rc, Vals: rv}
		}
	}
	gatherA := func(want []int) {
		got := distmat.GatherRemoteRows(c, l, lo, hi, aRows, want)
		for _, i := range want {
			rc, rv := got.Row(i)
			aCache[i] = rowData{Cols: rc, Vals: rv}
		}
	}
	missingAt := func(ks []int, seen map[int]bool) []int {
		var out []int
		for _, k := range ks {
			if _, ok := atCache[k]; !ok && !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
		return out
	}

	// Initial pattern: rows [lo,hi) of (structure(Aᵀ)+I)^Level, expanded by
	// the same recursion as sparse.PatternPowerWorkers — each extra level
	// unions base rows (with diagonal) of the previous level's entries.
	// Level-1 rows are local; deeper levels gather the needed base rows,
	// one collective gather per extra level on every rank.
	nl := hi - lo
	pats := make([][]int, nl)
	for li := 0; li < nl; li++ {
		rc, _ := atRows.Row(li)
		pats[li] = withEntry(rc, lo+li)
	}
	for lvl := 1; lvl < opt.Level; lvl++ {
		seen := map[int]bool{}
		var want []int
		for _, J := range pats {
			want = append(want, missingAt(J, seen)...)
		}
		gatherAt(want)
		for li := range pats {
			pats[li] = expandPattern(pats[li], atRow)
		}
	}
	// Shadow assembly needs row k of Aᵀ for every pattern entry k.
	{
		seen := map[int]bool{}
		var want []int
		for _, J := range pats {
			want = append(want, missingAt(J, seen)...)
		}
		gatherAt(want)
	}

	cols := make([]*column, nl)
	err := parallel.For(opt.Workers, nl, func(clo, chi int) error {
		buf := newScratch()
		for li := clo; li < chi; li++ {
			col := &column{j: lo + li, J: pats[li]}
			col.I = buildShadow(col.j, col.J, atRow)
			if err := col.solve(atRow, buf); err != nil {
				return err
			}
			cols[li] = col
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Adaptive rounds: every rank runs exactly opt.Steps rounds of the two
	// collective gathers — candidate rows of A, then new pattern rows of
	// Aᵀ — whether or not it still has active columns, keeping the
	// collective schedule rank-uniform. The per-column logic is the same
	// enrichment step the serial build runs.
	sbuf := newScratch()
	for step := 0; step < opt.Steps; step++ {
		var active []*column
		for _, col := range cols {
			col.done = col.rnorm <= opt.Epsilon
			if !col.done && !col.stalled {
				active = append(active, col)
			}
		}
		// Gather 1: rows of A for shadow rows with nonzero residual.
		seenA := map[int]bool{}
		var wantA []int
		for _, col := range active {
			for p, i := range col.I {
				if col.r[p] != 0 {
					if _, ok := aCache[i]; !ok && !seenA[i] {
						seenA[i] = true
						wantA = append(wantA, i)
					}
				}
			}
		}
		gatherA(wantA)
		// Enumerate candidates, then gather 2: rows of Aᵀ for every
		// candidate (scoring reads A·e_k, and the winners join the pattern).
		cands := make([][]int, len(active))
		seenAt := map[int]bool{}
		var wantAt []int
		for t, col := range active {
			cands[t] = col.candidateSet(aRow, sbuf)
			wantAt = append(wantAt, missingAt(cands[t], seenAt)...)
		}
		gatherAt(wantAt)
		type pick struct {
			col *column
			ks  []int
		}
		var picks []pick
		for t, col := range active {
			ks := col.scoreCandidates(cands[t], atRow, colNorm2, opt.Add)
			if len(ks) == 0 {
				col.stalled = true
				continue
			}
			picks = append(picks, pick{col, ks})
		}
		for _, p := range picks {
			p.col.J = mergeSorted(p.col.J, p.ks)
		}
		err := parallel.For(opt.Workers, len(picks), func(clo, chi int) error {
			buf := newScratch()
			for t := clo; t < chi; t++ {
				col := picks[t].col
				col.I = buildShadow(col.j, col.J, atRow)
				if err := col.solve(atRow, buf); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	mtRows := assembleTranspose(cols, nl, n)
	return distmat.TransposeDist(c, l, lo, hi, mtRows), nil
}

// withEntry returns sorted cols ∪ {j}.
func withEntry(cols []int, j int) []int {
	idx := sort.SearchInts(cols, j)
	if idx < len(cols) && cols[idx] == j {
		return append([]int(nil), cols...)
	}
	out := make([]int, 0, len(cols)+1)
	out = append(out, cols[:idx]...)
	out = append(out, j)
	out = append(out, cols[idx:]...)
	return out
}

// expandPattern unions the diagonal-augmented base rows of every entry —
// one symbolic-power level.
func expandPattern(J []int, atRow rowFn) []int {
	seen := map[int]bool{}
	var out []int
	for _, k := range J {
		cols, _ := atRow(k)
		for _, j := range withEntry(cols, k) {
			if !seen[j] {
				seen[j] = true
				out = append(out, j)
			}
		}
	}
	sort.Ints(out)
	return out
}
