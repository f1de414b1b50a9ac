package fsai

import (
	"fmt"
	"math"
	"testing"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/sparse"
)

// buildFromScratch is the reference the prefix reuse is held to: every row
// solved by a rowSolver of its own, so nothing is reused.
func buildFromScratch(t *testing.T, a *sparse.CSR, s *sparse.Pattern) *sparse.CSR {
	t.Helper()
	src := distmat.LocalRows(a)
	g := &sparse.CSR{Rows: s.Rows, Cols: s.Cols, RowPtr: s.RowPtr, ColIdx: s.ColIdx, Val: make([]float64, s.NNZ())}
	for i := 0; i < s.Rows; i++ {
		var rs rowSolver
		if err := rs.solve(src, i, s.Row(i), g.Val[g.RowPtr[i]:g.RowPtr[i+1]]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// sameBits fails unless got and want hold the same values bit for bit.
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: value %d = %v, from scratch %v", label, k, got[k], want[k])
		}
	}
}

// lineExtend returns s with every entry widened to its aligned group of w
// columns, cut at the diagonal — the shape of a cache-line extension: the
// rows of one group list the same leading columns, each one more at its
// end.
func lineExtend(s *sparse.Pattern, w int) *sparse.Pattern {
	rows := make([][]int, s.Rows)
	for i := range rows {
		for _, c := range s.Row(i) {
			for e := c - c%w; e < c-c%w+w && e <= i; e++ {
				if n := len(rows[i]); n == 0 || rows[i][n-1] < e {
					rows[i] = append(rows[i], e)
				}
			}
		}
	}
	return sparse.PatternFromRows(s.Rows, s.Cols, rows)
}

// TestPrefixReuseAcrossTheRowLoop: on patterns of a 3-D Laplacian (343
// rows) — the lower one, whose rows share nothing, and two line extensions
// of it, where most rows share all but their last column with the row
// before — the build gives the bits of one that factors every row from
// scratch: with 1, 2 and 8 workers, whose chunks start in the middle of a
// run of shared prefixes, and as a rebuild whose previous factor copies
// every other row, so the rows solved in between reuse the factor of the
// row two before.
func TestPrefixReuseAcrossTheRowLoop(t *testing.T) {
	a := matgen.Poisson3D(7, 7, 7)
	for _, w := range []int{1, 4, 8} {
		s := lineExtend(LowerPattern(a), w)
		shared := 0
		for i := 1; i < s.Rows; i++ {
			if s.Row(i)[0] == s.Row(i - 1)[0] {
				shared++
			}
		}
		if w > 1 && shared < s.Rows/2 {
			t.Fatalf("line %d: %d of %d rows share a prefix with the row before", w, shared, s.Rows)
		}
		want := buildFromScratch(t, a, s)
		// Odd rows of prevPattern reach further left than s's, so their
		// copies cannot be used; even rows are s's.
		wide := widen(s)
		rows := make([][]int, s.Rows)
		copies := 0
		for i := range rows {
			rows[i] = s.Row(i)
			if i%2 == 1 {
				rows[i] = wide.Row(i)
			}
			if len(rows[i]) == len(s.Row(i)) {
				copies++
			}
		}
		prev, err := BuildWorkers(a, sparse.PatternFromRows(s.Rows, s.Cols, rows), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("line %d workers %d", w, workers)
			g, err := BuildWorkers(a, s, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, label, g.Val, want.Val)
			g, reused, err := RebuildWorkers(a, prev, s, workers)
			if err != nil {
				t.Fatal(err)
			}
			if reused != copies || copies < s.Rows/2 || copies == s.Rows {
				t.Fatalf("%s: %d rows copied, want %d of %d", label, reused, copies, s.Rows)
			}
			sameBits(t, label+" rebuild", g.Val, want.Val)
		}
	}
}

// TestRowSolverPrefixState drives one chunk's solver through a sequence of
// patterns on a matrix whose restriction to {0, 1, 7} is not definite. Each
// row must give the bits, or the error, of a solver that has seen nothing:
// a row whose pattern is a strict prefix of the one before (nothing new to
// factor), the same pattern twice, a row that fails part-way through
// overwriting the factor — twice, so the second must not take the first's
// rows for a factor — and after it a row that shares a longer prefix with
// the last row solved than with the failed one, which must not reuse what
// the failure left.
func TestRowSolverPrefixState(t *testing.T) {
	c := sparse.NewCOO(8, 8)
	for i := 0; i < 7; i++ {
		c.Add(i, i, 8)
		for j := 0; j < i; j++ {
			c.AddSym(i, j, -1)
		}
	}
	c.Add(7, 7, 1)
	c.AddSym(7, 0, 3)
	c.AddSym(7, 1, 3)
	src := distmat.LocalRows(c.ToCSR())
	var rs rowSolver
	for _, cols := range [][]int{
		{0, 1, 2, 3, 4, 5},
		{0, 1, 2, 3},
		{0, 1, 2, 3},
		{0, 1, 2, 3, 5, 6},
		{0, 1, 7},
		{0, 1, 7},
		{0, 1, 2, 3, 5, 6},
		{2, 4, 6},
		{0, 1, 2, 4, 5, 6},
		{0, 1, 2, 4, 7},
		{0, 1, 2},
	} {
		i := cols[len(cols)-1]
		got, want := make([]float64, len(cols)), make([]float64, len(cols))
		var fresh rowSolver
		errGot, errWant := rs.solve(src, i, cols, got), fresh.solve(src, i, cols, want)
		if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
			t.Fatalf("%v: error %v, from scratch %v", cols, errGot, errWant)
		}
		if errWant == nil {
			sameBits(t, fmt.Sprint(cols), got, want)
		}
	}
	if err := rs.solve(src, 7, []int{0, 1, 7}, make([]float64, 3)); err == nil {
		t.Fatal("the restriction to {0, 1, 7} is not definite, and solved")
	}
}

// TestNotSPDErrorUnchanged pins the error of a build that meets a
// non-positive pivot — row, pivot index and value — to what the row-major
// solve of every row from scratch reported, for 1, 2 and 8 workers: once
// part-way through a row that reuses a prefix, once on a 2-D Laplacian with
// one diagonal entry too small on its level-2 pattern.
func TestNotSPDErrorUnchanged(t *testing.T) {
	// Rows 0–3 are coupled to row 4 alone; row 8's restriction reuses the
	// first four rows of row 7's and fails at its fifth pivot, column 4.
	c := sparse.NewCOO(12, 12)
	rows := make([][]int, 12)
	for i := range rows {
		c.Add(i, i, 2)
		rows[i] = []int{i}
	}
	for k := 0; k < 4; k++ {
		c.AddSym(4, k, 1)
	}
	c.Add(4, 4, -1)
	rows[7] = []int{0, 1, 2, 3, 5, 7}
	rows[8] = []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	mid := c.ToCSR()

	lap := matgen.Poisson2D(12, 12)
	for k := lap.RowPtr[100]; k < lap.RowPtr[101]; k++ {
		if lap.ColIdx[k] == 100 {
			lap.Val[k] = 0.5
		}
	}
	for _, tc := range []struct {
		a    *sparse.CSR
		s    *sparse.Pattern
		want string
	}{
		{mid, sparse.PatternFromRows(12, 12, rows), "fsai: row 8 local system: dense: matrix is not positive definite (pivot 4 = -0.9999999999999996)"},
		{lap, PowerPatternWorkers(lap, 2, 0, 0), "fsai: row 100 local system: dense: matrix is not positive definite (pivot 6 = -0.14088397790055243)"},
	} {
		for _, w := range []int{1, 2, 8} {
			if _, err := BuildWorkers(tc.a, tc.s, w); fmt.Sprint(err) != tc.want {
				t.Errorf("workers %d: error %v, want %s", w, err, tc.want)
			}
		}
	}
}
