package sparse_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fsaicomm/internal/sparse"
	"fsaicomm/internal/testsets"
)

// The indexed loops the row kernels replaced, kept as the reference every
// product is compared against with ==: same terms, same order, so any
// difference is a kernel bug, not rounding.

func naiveMulVec[V sparse.Value](rowPtr, colIdx []int, val []V, x, y []float64) {
	for i := range y {
		sum := 0.0
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			sum += float64(val[k]) * x[colIdx[k]]
		}
		y[i] = sum
	}
}

func naiveMulMatCols[V sparse.Value](rowPtr, colIdx []int, val []V, x, y []float64, k int, cols []int) {
	if cols == nil {
		for c := 0; c < k; c++ {
			cols = append(cols, c)
		}
	}
	for i := 0; i+1 < len(rowPtr); i++ {
		for _, c := range cols {
			y[i*k+c] = 0
		}
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			v := float64(val[p])
			for _, c := range cols {
				y[i*k+c] += v * x[colIdx[p]*k+c]
			}
		}
	}
}

// untouched fills a result vector so that a column the kernel must leave
// alone is told from one it wrote.
const untouched = -12345.678

func filled(n int) []float64 {
	y := make([]float64, n)
	for i := range y {
		y[i] = untouched
	}
	return y
}

func requireSame(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d is %v, the indexed loop gives %v", what, i, got[i], want[i])
		}
	}
}

// withEmptyTail appends n empty rows.
func withEmptyTail(m *sparse.CSR, n int) *sparse.CSR {
	out := m.Clone()
	for i := 0; i < n; i++ {
		out.RowPtr = append(out.RowPtr, out.RowPtr[out.Rows])
	}
	out.Rows += n
	return out
}

// masks lists the column selections a k-wide product is checked under: all
// columns, then every strict subset for k ≤ 3 (the empty one included), or —
// beyond — the shapes the pair kernel tells apart: an adjacent pair, a
// non-adjacent one, an odd count (a pair and a single), one column alone,
// and two random draws.
func masks(rng *rand.Rand, k int) [][]int {
	out := [][]int{nil}
	if k <= 3 {
		for bits := 0; bits < 1<<k-1; bits++ {
			cols := []int{}
			for c := 0; c < k; c++ {
				if bits>>c&1 == 1 {
					cols = append(cols, c)
				}
			}
			out = append(out, cols)
		}
		return out
	}
	out = append(out, []int{1, 2}, []int{0, k - 1}, []int{0, 2, k - 1}, []int{k - 1})
	for n := 0; n < 2; n++ {
		cols := []int{}
		for c := 0; c < k; c++ {
			if rng.Intn(2) == 1 {
				cols = append(cols, c)
			}
		}
		out = append(out, cols)
	}
	return out
}

// rowDotMulMatCols is the definition of a k-wide product: column c of the
// result is RowDot on the de-interleaved column c, row by row; the columns
// outside cols stay as they were.
func rowDotMulMatCols[V sparse.Value](rowPtr, colIdx []int, val []V, x, y []float64, k int, cols []int) {
	if cols == nil {
		for c := 0; c < k; c++ {
			cols = append(cols, c)
		}
	}
	xc := make([]float64, len(x)/k)
	for _, c := range cols {
		for j := range xc {
			xc[j] = x[j*k+c]
		}
		for i := 0; i+1 < len(rowPtr); i++ {
			s, e := rowPtr[i], rowPtr[i+1]
			y[i*k+c] = sparse.RowDot(colIdx[s:e], val[s:e], xc)
		}
	}
}

// requireSameBits is requireSame on the bit patterns: a zero of the other
// sign or another NaN fails it.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), RowDot on that column gives %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkKernels compares every product entry point on m with the indexed
// loops, in both precisions, for k = 1..6 under masks; the k-wide products —
// the platform's body and the portable one — also bit for bit with RowDot on
// each de-interleaved column, masked columns proven untouched.
func checkKernels(t *testing.T, rng *rand.Rand, name string, m *sparse.CSR) {
	t.Helper()
	m32 := sparse.NewCSR32(m)
	for k := 1; k <= 6; k++ {
		x := make([]float64, m.Cols*k)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		if k == 1 {
			want := make([]float64, m.Rows)
			naiveMulVec(m.RowPtr, m.ColIdx, m.Val, x, want)
			got := filled(m.Rows)
			m.MulVec(x, got)
			requireSame(t, name+" MulVec", got, want)
			naiveMulVec(m32.RowPtr, m32.ColIdx, m32.Val, x, want)
			got = filled(m.Rows)
			m32.MulVec(x, got)
			requireSame(t, name+" CSR32.MulVec", got, want)
		}
		for _, cols := range masks(rng, k) {
			at := fmt.Sprintf("%s k=%d cols=%v ", name, k, cols)
			want := filled(m.Rows * k)
			naiveMulMatCols(m.RowPtr, m.ColIdx, m.Val, x, want, k, cols)
			got := filled(m.Rows * k)
			m.MulMatCols(x, got, k, cols)
			requireSame(t, at+"MulMatCols", got, want)
			rowDotMulMatCols(m.RowPtr, m.ColIdx, m.Val, x, want, k, cols)
			requireSameBits(t, at+"MulMatCols", got, want)
			got = filled(m.Rows * k)
			m.MulMatColsPortable(x, got, k, cols)
			requireSameBits(t, at+"portable body", got, want)
			if cols == nil {
				got = filled(m.Rows * k)
				m.MulMat(x, got, k)
				requireSameBits(t, at+"MulMat", got, want)
			}
			want = filled(m.Rows * k)
			naiveMulMatCols(m32.RowPtr, m32.ColIdx, m32.Val, x, want, k, cols)
			got = filled(m.Rows * k)
			m32.MulMatCols(x, got, k, cols)
			requireSame(t, at+"CSR32.MulMatCols", got, want)
			rowDotMulMatCols(m32.RowPtr, m32.ColIdx, m32.Val, x, want, k, cols)
			requireSameBits(t, at+"CSR32.MulMatCols", got, want)
			got = filled(m.Rows * k)
			m32.MulMatColsPortable(x, got, k, cols)
			requireSameBits(t, at+"CSR32 portable body", got, want)
		}
	}
}

// TestRowKernelsMatchIndexedLoops pins the kernels to the loops they
// replaced, bit for bit, on shapes that reach every edge of them: empty rows
// (sparse draws), a trailing run of empty rows, a single column, rows longer
// than 64 entries, and wide blocks whose masks leave columns untouched.
func TestRowKernelsMatchIndexedLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct {
		name           string
		m              *sparse.CSR
		empty, longest int // at least this many empty rows, a row at least this long
	}{
		{"sparse 40x30", testsets.RandomCSR(rng, 40, 30, 0.05), 1, 0},
		{"empty tail", withEmptyTail(testsets.RandomCSR(rng, 12, 9, 0.3), 5), 5, 0},
		{"one column", testsets.RandomCSR(rng, 25, 1, 0.6), 0, 1},
		{"one row", testsets.RandomCSR(rng, 1, 50, 0.5), 0, 0},
		{"long rows", testsets.RandomCSR(rng, 9, 200, 0.7), 0, 65},
		{"no entries", testsets.RandomCSR(rng, 6, 6, 0), 6, 0},
	} {
		if err := tc.m.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		empty, longest := 0, 0
		for i := 0; i < tc.m.Rows; i++ {
			if tc.m.RowNNZ(i) == 0 {
				empty++
			}
			longest = max(longest, tc.m.RowNNZ(i))
		}
		if empty < tc.empty || longest < tc.longest {
			t.Fatalf("%s: %d empty rows, longest row %d — the draw misses the shape it is here for", tc.name, empty, longest)
		}
		checkKernels(t, rng, tc.name, tc.m)
	}
}

// FuzzRowKernels drives the same comparison from arbitrary RowPtr / ColIdx
// encodings (one signed byte each, as in FuzzCSRValidate): whatever passes
// Validate must multiply exactly as the indexed loops do, and its k-wide
// products — the assembly where there is one, and the portable body — must
// hold RowDot's bits in every active column at widths 1–6, in both value
// types, under nil, adjacent, non-adjacent, odd and single-column masks.
func FuzzRowKernels(f *testing.F) {
	f.Add(uint8(4), uint8(4), []byte{0, 2, 5, 8, 10}, []byte{0, 1, 0, 1, 2, 1, 2, 3, 2, 3}, int64(1))
	f.Add(uint8(5), uint8(3), []byte{0, 0, 3, 3, 3, 3}, []byte{0, 1, 2}, int64(2)) // empty head and tail
	f.Add(uint8(3), uint8(1), []byte{0, 1, 1, 2}, []byte{0, 0}, int64(3))          // one column
	f.Add(uint8(0), uint8(0), []byte{0}, []byte{}, int64(4))
	f.Add(uint8(3), uint8(7), []byte{0, 0, 7, 7}, []byte{0, 1, 2, 3, 4, 5, 6}, int64(5)) // a full row between empty ones
	f.Fuzz(func(t *testing.T, rows, cols uint8, rowPtrB, colIdxB []byte, seed int64) {
		m := &sparse.CSR{Rows: int(rows % 16), Cols: int(cols % 16),
			RowPtr: make([]int, len(rowPtrB)), ColIdx: make([]int, len(colIdxB)), Val: make([]float64, len(colIdxB))}
		rng := rand.New(rand.NewSource(seed))
		for i, b := range rowPtrB {
			m.RowPtr[i] = int(int8(b))
		}
		for i, b := range colIdxB {
			m.ColIdx[i] = int(int8(b))
			m.Val[i] = rng.NormFloat64()
		}
		if m.Validate() != nil {
			return
		}
		checkKernels(t, rng, "fuzzed", m)
	})
}
