package sparse

import (
	"fmt"
	"sort"
)

// Assembler builds a CSR matrix from entries delivered in any order by a
// counting sort on the row index, in two passes over the entries:
//
//	as := NewAssembler(rows, cols)
//	for each entry { as.Count(i, 1) }
//	as.Begin()
//	for each entry { as.Put(i, j, v) }
//	m := as.Finish()
//
// The bucketing is stable, so a row whose entries arrive with strictly
// increasing columns is final as soon as it is filled; only rows that arrive
// out of order are sorted (stably, by column) in Finish, and duplicates of
// one position are summed there in the order they were Put. Cost is
// O(rows + entries) plus the sort of the rows that need one. Values are
// stored as given, signed zeros included.
type Assembler struct {
	m *CSR
	// next[i] is the slot the next entry of row i goes to.
	next []int
	// unsorted marks rows that received a column not above its predecessor;
	// nil until the first such entry, so the in-order case allocates nothing.
	unsorted []bool
}

// NewAssembler starts the counting pass of a rows×cols matrix.
func NewAssembler(rows, cols int) *Assembler {
	return &Assembler{m: &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}}
}

// Count announces n further entries of row i.
func (a *Assembler) Count(i, n int) { a.m.RowPtr[i+1] += n }

// Begin ends the counting pass and allocates the entry arrays.
func (a *Assembler) Begin() {
	m := a.m
	for i := 0; i < m.Rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	nnz := m.RowPtr[m.Rows]
	m.ColIdx = make([]int, nnz)
	m.Val = make([]float64, nnz)
	a.next = append([]int(nil), m.RowPtr[:m.Rows]...)
}

// Put stores entry (i, j) = v in the next slot of row i. Every row must
// receive exactly the entries counted for it; Finish panics otherwise. The
// caller vouches for 0 ≤ j < cols.
func (a *Assembler) Put(i, j int, v float64) {
	m := a.m
	p := a.next[i]
	a.next[i] = p + 1
	if p > m.RowPtr[i] && m.ColIdx[p-1] >= j {
		if a.unsorted == nil {
			a.unsorted = make([]bool, m.Rows)
		}
		a.unsorted[i] = true
	}
	m.ColIdx[p] = j
	m.Val[p] = v
}

// Finish sorts the rows that arrived out of order, sums duplicates and
// returns the matrix. The Assembler must not be used afterwards.
func (a *Assembler) Finish() *CSR {
	m := a.m
	for i, p := range a.next {
		if p != m.RowPtr[i+1] {
			panic(fmt.Sprintf("sparse: Assembler row %d got %d entries, %d were counted",
				i, p-m.RowPtr[i], m.RowPtr[i+1]-m.RowPtr[i]))
		}
	}
	if a.unsorted == nil {
		return m
	}
	shrunk := false
	for i, bad := range a.unsorted {
		if !bad {
			continue
		}
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		cols, vals := m.ColIdx[lo:hi], m.Val[lo:hi]
		SortRowByColumn(cols, vals)
		w := 0
		for r := 1; r < len(cols); r++ {
			if cols[r] == cols[w] {
				vals[w] += vals[r]
				continue
			}
			w++
			cols[w], vals[w] = cols[r], vals[r]
		}
		if w+1 < len(cols) {
			a.next[i] = lo + w + 1 // the row's new end
			shrunk = true
		}
	}
	if !shrunk {
		return m
	}
	// Close the gaps the summed duplicates left behind.
	w := 0
	for i := 0; i < m.Rows; i++ {
		lo, end := m.RowPtr[i], a.next[i]
		m.RowPtr[i] = w
		w += copy(m.ColIdx[w:], m.ColIdx[lo:end])
		copy(m.Val[m.RowPtr[i]:], m.Val[lo:end])
	}
	m.RowPtr[m.Rows] = w
	m.ColIdx, m.Val = m.ColIdx[:w], m.Val[:w]
	return m
}

// SortRowByColumn sorts one row's parallel column/value slices by column,
// keeping entries of equal column in their original order. The values may be
// anything that travels with a column: matrix entries, or the positions they
// came from.
func SortRowByColumn[V any](cols []int, vals []V) {
	sort.Stable(&colValSorter[V]{cols, vals})
}

type colValSorter[V any] struct {
	cols []int
	vals []V
}

func (s *colValSorter[V]) Len() int           { return len(s.cols) }
func (s *colValSorter[V]) Less(i, j int) bool { return s.cols[i] < s.cols[j] }
func (s *colValSorter[V]) Swap(i, j int) {
	s.cols[i], s.cols[j] = s.cols[j], s.cols[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}
