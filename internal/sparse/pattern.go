package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"fsaicomm/internal/parallel"
)

// Pattern is a structure-only sparse matrix: the set of (row, column)
// positions where a matrix is allowed to be nonzero. FSAI-family
// preconditioners are defined on a pattern first and valued second.
type Pattern struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
}

// NNZ returns the number of positions in the pattern.
func (p *Pattern) NNZ() int { return len(p.ColIdx) }

// Row returns the (sorted) column indices of row i as a shared slice.
func (p *Pattern) Row(i int) []int {
	return p.ColIdx[p.RowPtr[i]:p.RowPtr[i+1]]
}

// Has reports whether (i, j) is in the pattern.
func (p *Pattern) Has(i, j int) bool {
	cols := p.Row(i)
	k := sort.SearchInts(cols, j)
	return k < len(cols) && cols[k] == j
}

// PatternOf extracts the sparsity pattern of a CSR matrix.
func PatternOf(m *CSR) *Pattern {
	return &Pattern{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
	}
}

// PatternFromRows builds a pattern from per-row column sets. Each row slice
// is sorted and deduplicated; the input slices are not retained.
func PatternFromRows(rows, cols int, rowSets [][]int) *Pattern {
	if len(rowSets) != rows {
		panic(fmt.Sprintf("sparse: PatternFromRows got %d row sets for %d rows", len(rowSets), rows))
	}
	total := 0
	for _, rs := range rowSets {
		total += len(rs)
	}
	p := &Pattern{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1), ColIdx: make([]int, 0, total)}
	for i, rs := range rowSets {
		// Sort and deduplicate the row in place, where it will stay.
		start := len(p.ColIdx)
		p.ColIdx = append(p.ColIdx, rs...)
		set := p.ColIdx[start:]
		if !slices.IsSorted(set) {
			slices.Sort(set)
		}
		w, prev := start, -1
		for _, c := range set {
			if c < 0 || c >= cols {
				panic(fmt.Sprintf("sparse: PatternFromRows column %d out of range [0,%d)", c, cols))
			}
			if c != prev {
				p.ColIdx[w] = c
				w++
				prev = c
			}
		}
		p.ColIdx = p.ColIdx[:w]
		p.RowPtr[i+1] = len(p.ColIdx)
	}
	return p
}

// LowerTriangle restricts the pattern to positions with column ≤ row.
func (p *Pattern) LowerTriangle() *Pattern {
	l := &Pattern{Rows: p.Rows, Cols: p.Cols, RowPtr: make([]int, p.Rows+1)}
	for i := 0; i < p.Rows; i++ {
		for _, c := range p.Row(i) {
			if c <= i {
				l.ColIdx = append(l.ColIdx, c)
			}
		}
		l.RowPtr[i+1] = len(l.ColIdx)
	}
	return l
}

// WithDiagonal returns the pattern with all diagonal positions present.
// FSAI requires g_ii to be in the pattern of every row.
func (p *Pattern) WithDiagonal() *Pattern {
	out := &Pattern{Rows: p.Rows, Cols: p.Cols, RowPtr: make([]int, p.Rows+1)}
	for i := 0; i < p.Rows; i++ {
		row := p.Row(i)
		k := sort.SearchInts(row, i)
		hasDiag := k < len(row) && row[k] == i
		out.ColIdx = append(out.ColIdx, row[:k]...)
		out.ColIdx = append(out.ColIdx, i)
		if hasDiag {
			out.ColIdx = append(out.ColIdx, row[k+1:]...)
		} else {
			out.ColIdx = append(out.ColIdx, row[k:]...)
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

// Contains reports whether every position of q is also in p.
func (p *Pattern) Contains(q *Pattern) bool {
	if p.Rows != q.Rows || p.Cols != q.Cols {
		return false
	}
	for i := 0; i < p.Rows; i++ {
		a, b := p.Row(i), q.Row(i)
		x := 0
		for _, c := range b {
			for x < len(a) && a[x] < c {
				x++
			}
			if x == len(a) || a[x] != c {
				return false
			}
		}
	}
	return true
}

// Equal reports whether two patterns contain exactly the same positions.
func (p *Pattern) Equal(q *Pattern) bool {
	return p.NNZ() == q.NNZ() && p.Contains(q)
}

// Threshold returns the matrix Ã obtained from A by dropping off-diagonal
// entries with |a_ij| < tau * sqrt(|a_ii| * |a_jj|) (a scale-independent
// comparison, Chow 2001). Diagonal entries are always kept. tau = 0 keeps
// every stored entry.
func Threshold(a *CSR, tau float64) *CSR {
	d := a.Diagonal()
	out := NewCSR(a.Rows, a.Cols, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			keep := c == i
			if !keep {
				scale := math.Sqrt(math.Abs(d[i]) * math.Abs(d[c]))
				keep = math.Abs(vals[k]) >= tau*scale
			}
			if keep {
				out.ColIdx = append(out.ColIdx, c)
				out.Val = append(out.Val, vals[k])
			}
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

// PatternPowerWorkers computes the sparsity pattern of Ãᴺ symbolically with
// workers workers (<= 0 selects GOMAXPROCS). level must be ≥ 1; level 1 is
// the pattern of Ã itself. The result always includes the diagonal.
// Symbolic row-by-row expansion with a visited scratch keeps the cost
// proportional to the output size times the average row degree. Each output
// row depends only on input rows, so row
// blocks expand independently with private scratch and are concatenated in
// order: the result is bit-identical for every worker count.
func PatternPowerWorkers(a *CSR, level, workers int) *Pattern {
	if level < 1 {
		panic(fmt.Sprintf("sparse: PatternPower level %d < 1", level))
	}
	base := PatternOf(a).WithDiagonal()
	cur := base
	for l := 1; l < level; l++ {
		cur = symbolicProductWorkers(cur, base, workers)
	}
	return cur
}

// expandRow appends the sorted column set of row i of P*Q to scratch[:0],
// using mark (len q.Cols, stamped with i) to deduplicate.
func expandRow(p, q *Pattern, i int, mark []int, scratch []int) []int {
	scratch = scratch[:0]
	for _, k := range p.Row(i) {
		for _, j := range q.Row(k) {
			if mark[j] != i {
				mark[j] = i
				scratch = append(scratch, j)
			}
		}
	}
	sort.Ints(scratch)
	return scratch
}

// symbolicProduct returns the pattern of P*Q for square patterns (serial).
func symbolicProduct(p, q *Pattern) *Pattern {
	out := &Pattern{Rows: p.Rows, Cols: q.Cols, RowPtr: make([]int, p.Rows+1)}
	mark := make([]int, q.Cols)
	for i := range mark {
		mark[i] = -1
	}
	var scratch []int
	for i := 0; i < p.Rows; i++ {
		scratch = expandRow(p, q, i, mark, scratch)
		out.ColIdx = append(out.ColIdx, scratch...)
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

// symbolicProductWorkers computes the pattern of P*Q over contiguous row
// blocks in parallel. Each block gets private mark/scratch buffers and
// produces an independent fragment; fragments are stitched in block order,
// so the output is identical to the serial product.
func symbolicProductWorkers(p, q *Pattern, workers int) *Pattern {
	w := parallel.Workers(workers)
	if w == 1 || p.Rows < 256 {
		return symbolicProduct(p, q)
	}
	nblocks := 4 * w
	if nblocks > p.Rows {
		nblocks = p.Rows
	}
	type fragment struct {
		colIdx []int
		rowLen []int
	}
	frags := make([]fragment, nblocks)
	bounds := func(b int) (int, int) {
		lo := b * p.Rows / nblocks
		hi := (b + 1) * p.Rows / nblocks
		return lo, hi
	}
	tasks := make([]func() error, nblocks)
	for b := 0; b < nblocks; b++ {
		b := b
		tasks[b] = func() error {
			lo, hi := bounds(b)
			mark := make([]int, q.Cols)
			for i := range mark {
				mark[i] = -1
			}
			f := &frags[b]
			f.rowLen = make([]int, 0, hi-lo)
			var scratch []int
			for i := lo; i < hi; i++ {
				scratch = expandRow(p, q, i, mark, scratch)
				f.colIdx = append(f.colIdx, scratch...)
				f.rowLen = append(f.rowLen, len(scratch))
			}
			return nil
		}
	}
	// Tasks only write their own fragment and cannot fail.
	_ = parallel.Run(w, tasks...)

	out := &Pattern{Rows: p.Rows, Cols: q.Cols, RowPtr: make([]int, p.Rows+1)}
	total := 0
	for b := range frags {
		total += len(frags[b].colIdx)
	}
	out.ColIdx = make([]int, 0, total)
	row := 0
	for b := range frags {
		out.ColIdx = append(out.ColIdx, frags[b].colIdx...)
		for _, l := range frags[b].rowLen {
			out.RowPtr[row+1] = out.RowPtr[row] + l
			row++
		}
	}
	return out
}
