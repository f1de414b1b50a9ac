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
			checkRuns(t, name, m, m32, x)
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

// checkRuns holds the run product of m and m32 to RowDot row by row, bit
// for bit, on the run index whatever its runs save, and checks that
// IndexRuns keeps an index exactly when 2·runs < nnz.
func checkRuns(t *testing.T, name string, m *sparse.CSR, m32 *sparse.CSR32, x []float64) {
	t.Helper()
	r := sparse.AllRuns(m.RowPtr, m.ColIdx)
	ptr, runs := r.Lists()
	if kept := sparse.IndexRuns(m.RowPtr, m.ColIdx) != nil; kept != (len(runs) < m.NNZ()) {
		t.Fatalf("%s: %d runs over %d entries, IndexRuns kept an index: %v", name, len(runs)/2, m.NNZ(), kept)
	}
	for i := 0; i < m.Rows; i++ {
		e := m.RowPtr[i]
		for q := ptr[i]; q < ptr[i+1]; q++ {
			for j := 0; j < runs[2*q+1]; j++ {
				if m.ColIdx[e] != runs[2*q]+j {
					t.Fatalf("%s: row %d entry %d is column %d, its run says %d", name, i, e, m.ColIdx[e], runs[2*q]+j)
				}
				e++
			}
		}
		if e != m.RowPtr[i+1] {
			t.Fatalf("%s: row %d's runs cover %d of its %d entries", name, i, e-m.RowPtr[i], m.RowNNZ(i))
		}
	}
	want, want32 := make([]float64, m.Rows), make([]float64, m.Rows)
	for i := range want {
		s, e := m.RowPtr[i], m.RowPtr[i+1]
		want[i] = sparse.RowDot(m.ColIdx[s:e], m.Val[s:e], x)
		want32[i] = sparse.RowDot(m32.ColIdx[s:e], m32.Val[s:e], x)
	}
	got := filled(m.Rows)
	m.MulVecRuns(r, x, got)
	requireSameBits(t, name+" MulVecRuns", got, want)
	got = filled(m.Rows)
	m32.MulVecRuns(r, x, got)
	requireSameBits(t, name+" CSR32.MulVecRuns", got, want32)
}

// runsCSR builds a matrix of cols columns whose rows are the given runs
// (start, length pairs; a row without runs is empty), with random values.
func runsCSR(rng *rand.Rand, cols int, rows ...[]int) *sparse.CSR {
	m := &sparse.CSR{Rows: len(rows), Cols: cols, RowPtr: []int{0}}
	for _, runs := range rows {
		for q := 0; q < len(runs); q += 2 {
			for j := 0; j < runs[q+1]; j++ {
				m.ColIdx = append(m.ColIdx, runs[q]+j)
				m.Val = append(m.Val, rng.NormFloat64())
			}
		}
		m.RowPtr = append(m.RowPtr, len(m.ColIdx))
	}
	return m
}

// TestRunProductShapes puts the run product through the shapes its
// assembly tells apart: runs of every length from 1 to 9 and longer ones
// (the unrolled run of 8, the pair loop, an odd last entry), empty rows
// between and after full ones, a run ending on the last column of x, and
// runs over halo slots — columns past a rank's local ones, here 30 local and
// 10 halo, with one run crossing from the local block into the halo.
func TestRunProductShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var rows [][]int
	for n := 1; n <= 20; n++ {
		rows = append(rows, []int{0, n}, nil, []int{40 - n, n})
	}
	rows = append(rows,
		[]int{0, 1, 2, 8, 11, 3, 15, 9, 25, 2},
		[]int{27, 6, 35, 5},
		[]int{30, 8, 39, 1},
		[]int{0, 8, 9, 8, 18, 8, 27, 8},
		nil, nil)
	m := runsCSR(rng, 40, rows...)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if sparse.IndexRuns(m.RowPtr, m.ColIdx) == nil {
		t.Fatal("a pattern of long runs got no run index")
	}
	checkKernels(t, rng, "runs", m)
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
	f.Add(uint8(4), uint8(15), []byte{0, 9, 17, 17, 32},                                 // runs of 9, 8 and 15, the last ending on x's last column
		[]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 3, 4, 5, 6, 7, 8, 9, 10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, int64(6))
	f.Add(uint8(2), uint8(12), []byte{0, 7, 12}, []byte{0, 2, 3, 5, 6, 7, 11, 1, 2, 3, 9, 10}, int64(7)) // runs of 1, 2 and 3
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
