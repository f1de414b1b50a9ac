package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortToCSR is the conversion COO.ToCSR used before the counting-sort
// Assembler: copy the triples, sort them by (row, column), sum runs. Kept as
// the reference the new assembly is compared against. sort.Slice is not
// stable, so with duplicates the order of summation — and with it the last
// bit of the sum — is unspecified here; the comparison below uses values
// whose sums are exact.
func sortToCSR(c *COO) *CSR {
	type ent struct {
		i, j int
		v    float64
	}
	ents := make([]ent, len(c.I))
	for k := range c.I {
		ents[k] = ent{c.I[k], c.J[k], c.V[k]}
	}
	sort.Slice(ents, func(a, b int) bool {
		if ents[a].i != ents[b].i {
			return ents[a].i < ents[b].i
		}
		return ents[a].j < ents[b].j
	})
	m := NewCSR(c.Rows, c.Cols, len(ents))
	for k := 0; k < len(ents); {
		e := ents[k]
		sum := 0.0
		for k < len(ents) && ents[k].i == e.i && ents[k].j == e.j {
			sum += ents[k].v
			k++
		}
		m.ColIdx = append(m.ColIdx, e.j)
		m.Val = append(m.Val, sum)
		m.RowPtr[e.i+1] = len(m.ColIdx)
	}
	for i := 1; i <= c.Rows; i++ {
		if m.RowPtr[i] < m.RowPtr[i-1] {
			m.RowPtr[i] = m.RowPtr[i-1]
		}
	}
	return m
}

func sameCSR(t *testing.T, got, want *CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if len(got.RowPtr) != len(want.RowPtr) || got.NNZ() != want.NNZ() || len(got.Val) != len(want.Val) {
		t.Fatalf("sizes rowptr/nnz/val %d/%d/%d, want %d/%d/%d",
			len(got.RowPtr), got.NNZ(), len(got.Val), len(want.RowPtr), want.NNZ(), len(want.Val))
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("RowPtr[%d] = %d, want %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.ColIdx {
		if got.ColIdx[k] != want.ColIdx[k] || math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			t.Fatalf("entry %d = (%d, %v), want (%d, %v)", k, got.ColIdx[k], got.Val[k], want.ColIdx[k], want.Val[k])
		}
	}
}

// TestToCSRMatchesSortReference: random COOs with duplicates, empty rows,
// rows added in column order and rows added out of order convert to the
// same matrix, entry for entry, as the sort-based reference. Values are
// small integers so that duplicate sums are exact in any order.
func TestToCSRMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 300; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		type ent struct {
			j int
			v float64
		}
		pending := make([][]ent, rows)
		left := 0
		for i := range pending {
			switch rng.Intn(4) {
			case 0: // empty row
			case 1: // pre-sorted, no duplicates
				for j := 0; j < cols; j++ {
					if rng.Intn(2) == 0 {
						pending[i] = append(pending[i], ent{j, float64(1 + rng.Intn(9))})
					}
				}
			case 2: // unsorted, no duplicates
				for _, j := range rng.Perm(cols)[:rng.Intn(cols+1)] {
					pending[i] = append(pending[i], ent{j, float64(1 + rng.Intn(9))})
				}
			case 3: // unsorted with duplicates (and the odd explicit zero)
				for k := rng.Intn(3 * cols); k > 0; k-- {
					pending[i] = append(pending[i], ent{rng.Intn(cols), float64(rng.Intn(19) - 9)})
				}
			}
			left += len(pending[i])
		}
		// Add the rows interleaved, each in its own order: the triples of one
		// row need not be adjacent.
		c := NewCOO(rows, cols)
		for left > 0 {
			i := rng.Intn(rows)
			if len(pending[i]) == 0 {
				continue
			}
			c.Add(i, pending[i][0].j, pending[i][0].v)
			pending[i] = pending[i][1:]
			left--
		}
		got := c.ToCSR()
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameCSR(t, got, sortToCSR(c))
	}
}

// TestToCSRInterleavedRows adds the entries column by column, so every row
// arrives in order but no two consecutive triples share a row.
func TestToCSRInterleavedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 40
	c := NewCOO(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				c.Add(i, j, rng.NormFloat64())
			}
		}
	}
	sameCSR(t, c.ToCSR(), sortToCSR(c))
}

// TestAssemblerSumsInInsertionOrder pins the documented summation order:
// duplicates of one position are added in the order they were Put, which the
// three values below make visible in the last bits.
func TestAssemblerSumsInInsertionOrder(t *testing.T) {
	vals := []float64{1, 1e16, -1e16}
	c := NewCOO(1, 2)
	c.Add(0, 1, 5)
	for _, v := range vals {
		c.Add(0, 0, v)
	}
	want := (vals[0] + vals[1]) + vals[2]
	if other := (vals[1] + vals[2]) + vals[0]; other == want {
		t.Fatal("test values do not distinguish summation orders")
	}
	if got := c.ToCSR().At(0, 0); got != want {
		t.Fatalf("sum = %v, want %v (insertion order)", got, want)
	}
}

func TestAssemblerDetectsMiscount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Finish accepted a row that got fewer entries than counted")
		}
	}()
	as := NewAssembler(2, 2)
	as.Count(0, 2)
	as.Begin()
	as.Put(0, 0, 1)
	as.Finish()
}
