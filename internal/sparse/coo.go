package sparse

import "fmt"

// COO is a coordinate-format builder for sparse matrices. Entries may be
// added in any order; duplicates are summed when converting to CSR.
type COO struct {
	Rows, Cols int
	I, J       []int
	V          []float64
}

// NewCOO returns an empty COO builder with the given shape.
func NewCOO(rows, cols int) *COO {
	return &COO{Rows: rows, Cols: cols}
}

// Reserve makes room for n entries in total, so that Adds up to that count
// do not reallocate.
func (c *COO) Reserve(n int) {
	if n <= cap(c.I) {
		return
	}
	c.I = append(make([]int, 0, n), c.I...)
	c.J = append(make([]int, 0, n), c.J...)
	c.V = append(make([]float64, 0, n), c.V...)
}

// Add appends entry (i, j) = v. It panics on out-of-range indices so that
// generator bugs fail loudly.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.Rows || j < 0 || j >= c.Cols {
		panic(fmt.Sprintf("sparse: COO.Add (%d,%d) out of range for %dx%d", i, j, c.Rows, c.Cols))
	}
	c.I = append(c.I, i)
	c.J = append(c.J, j)
	c.V = append(c.V, v)
}

// AddSym appends (i, j) = v and, when i != j, also (j, i) = v.
func (c *COO) AddSym(i, j int, v float64) {
	c.Add(i, j, v)
	if i != j {
		c.Add(j, i, v)
	}
}

// ToCSR converts the accumulated entries into CSR form in O(rows + entries)
// by counting sort (see Assembler), sorting only the rows whose entries were
// not added in column order. Duplicates of one position are summed in the
// order they were added. Entries that sum to exactly zero are NOT dropped
// (structural zeros are preserved, as FSAI patterns distinguish structure
// from value).
func (c *COO) ToCSR() *CSR {
	as := NewAssembler(c.Rows, c.Cols)
	for _, i := range c.I {
		as.Count(i, 1)
	}
	as.Begin()
	for k, i := range c.I {
		as.Put(i, c.J[k], c.V[k])
	}
	return as.Finish()
}
