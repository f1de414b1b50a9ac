package sparse

import (
	"fmt"
	"strings"
	"testing"
)

// guard surrounds a test slice with words the kernel must never write.
const guard = -777.25

// guarded returns a slice of n values v with 64 guard words on either side of
// it in one allocation, and the whole allocation for the check afterwards.
func guarded(n int, v float64) (mid, all []float64) {
	all = make([]float64, n+128)
	for i := range all {
		all[i] = guard
	}
	mid = all[64 : 64+n : 64+n]
	for i := range mid {
		mid[i] = v
	}
	return mid, all
}

// hostileProduct runs rows [0, rows) of a k-wide product on the assembly's
// wrapper and returns what it panicked with ("" if it did not). y is filled
// with 0.5 between guard words; the guard words must survive.
func hostileProduct[V Value](t *testing.T, rowPtr, colIdx []int, val []V, xLen, yLen, k int, cols []int, rows int) (msg string, y []float64) {
	t.Helper()
	x := make([]float64, xLen)
	for i := range x {
		x[i] = float64(i + 1)
	}
	y, all := guarded(yLen, 0.5)
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		mulMatWide(rowPtr, colIdx, val, x, y, k, cols, 0, rows)
	}()
	for i, v := range all {
		if (i < 64 || i >= 64+yLen) && v != guard {
			t.Fatalf("word %d outside y was written: %v", i-64, v)
		}
	}
	return msg, y
}

// TestHostileCSRPanicsWithRowNamed: the assembly's safety is the Go kernel's.
// A column index at or past the rows of x (or negative), a RowPtr that runs
// backwards or past the stored entries, values shorter than the indices, and
// an x or y too short for the product all panic from the Go wrapper with the
// row named, with nothing of the rows after it written and nothing outside y
// touched; so do the run product's refusals (hostileRunCases). Both value
// types.
func TestHostileCSRPanicsWithRowNamed(t *testing.T) {
	hostileRunCases(t)
	if !sse3 {
		t.Skip("no SSE3: the portable body runs, whose bounds checks are the compiler's")
	}
	// 4 rows × 3 columns, two entries a row; row 2 is the one each case breaks.
	good := func() (rowPtr, colIdx []int) {
		return []int{0, 2, 4, 6, 8}, []int{0, 1, 1, 2, 0, 2, 0, 1}
	}
	for _, tc := range []struct {
		name       string
		hurt       func(rowPtr, colIdx []int) (rp, ci []int)
		valLen     int
		xLen, yLen int // for k = 2: 6 and 8 fit
		row        int // the row the panic must name
	}{
		{"column index = Cols", func(rp, ci []int) ([]int, []int) { ci[5] = 3; return rp, ci }, 8, 6, 8, 2},
		{"column index huge", func(rp, ci []int) ([]int, []int) { ci[4] = 1 << 40; return rp, ci }, 8, 6, 8, 2},
		{"column index negative", func(rp, ci []int) ([]int, []int) { ci[4] = -1; return rp, ci }, 8, 6, 8, 2},
		{"RowPtr runs backwards", func(rp, ci []int) ([]int, []int) { rp[3] = 3; return rp, ci }, 8, 6, 8, 2},
		{"RowPtr negative", func(rp, ci []int) ([]int, []int) { rp[2] = -4; return rp, ci }, 8, 6, 8, 1},
		{"RowPtr past ColIdx", func(rp, ci []int) ([]int, []int) { rp[3] = 9; return rp, ci }, 8, 6, 8, 2},
		{"Val shorter than ColIdx", func(rp, ci []int) ([]int, []int) { return rp, ci }, 5, 6, 8, 2},
		{"RowPtr short", func(rp, ci []int) ([]int, []int) { return rp[:3], ci }, 8, 6, 8, 2},
		{"x short", func(rp, ci []int) ([]int, []int) { return rp, ci }, 8, 4, 8, 1},
		{"y short", func(rp, ci []int) ([]int, []int) { return rp, ci }, 8, 6, 5, 2},
	} {
		for _, cols := range [][]int{nil, {1}, {0, 1}} {
			for _, f32 := range []bool{false, true} {
				rowPtr, colIdx := tc.hurt(good())
				var msg string
				var y []float64
				if f32 {
					msg, y = hostileProduct(t, rowPtr, colIdx, make([]float32, tc.valLen), tc.xLen, tc.yLen, 2, cols, 4)
				} else {
					msg, y = hostileProduct(t, rowPtr, colIdx, make([]float64, tc.valLen), tc.xLen, tc.yLen, 2, cols, 4)
				}
				at := fmt.Sprintf("%s, cols %v, float32 %v", tc.name, cols, f32)
				if !strings.HasPrefix(msg, "sparse: k-wide product") || !strings.Contains(msg, fmt.Sprintf("row %d", tc.row)) {
					t.Fatalf("%s: panic %q, want one from the wrapper naming row %d", at, msg, tc.row)
				}
				for i := (tc.row + 1) * 2; i < len(y); i++ {
					if y[i] != 0.5 {
						t.Fatalf("%s: y[%d] of a row after the bad one was written: %v", at, i, y[i])
					}
				}
			}
		}
	}

	// A mask naming a column outside the block is refused before any row.
	rowPtr, colIdx := good()
	for _, cols := range [][]int{{2}, {0, 7}, {-1}} {
		msg, y := hostileProduct(t, rowPtr, colIdx, make([]float64, 8), 6, 8, 2, cols, 4)
		if !strings.Contains(msg, "active column") {
			t.Fatalf("cols %v: panic %q, want the active column refused", cols, msg)
		}
		for i, v := range y {
			if v != 0.5 {
				t.Fatalf("cols %v: y[%d] written: %v", cols, i, v)
			}
		}
	}
}

// hostileRuns runs rows [0, rows) of the run product on the assembly's
// wrapper, every row's values two apart in val, and returns what it
// panicked with ("" if it did not). y is filled with 0.5 between guard
// words; the guard words must survive.
func hostileRuns[V Value](t *testing.T, ptr, runs []int, val []V, xLen, rows int) (msg string, y []float64) {
	t.Helper()
	x := make([]float64, xLen)
	for i := range x {
		x[i] = float64(i + 1)
	}
	for i := range val {
		val[i] = V(i + 1)
	}
	rowPtr := make([]int, rows+1)
	for i := range rowPtr {
		rowPtr[i] = 2 * i
	}
	y, all := guarded(rows, 0.5)
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		mulVecRuns(&RunIndex{ptr: ptr, runs: runs}, rowPtr, nil, val, x, y, 0, rows)
	}()
	for i, v := range all {
		if (i < 64 || i >= 64+rows) && v != guard {
			t.Fatalf("word %d outside y was written: %v", i-64, v)
		}
	}
	return msg, y
}

// hostileRunCases: the run kernel refuses, with the row named and nothing
// of that row or the rows after it written, a run starting at or past the
// rows of x (or negative), a run ending past them, a negative length, a run
// reading past the values, and run pointers that run backwards or past the
// index. The rows before the bad one hold RowDot's sums. Both value types.
func hostileRunCases(t *testing.T) {
	// 4 rows over an x of 6: row i is the run (i, 2), values 2i and 2i+1.
	good := func() (ptr, runs []int) {
		return []int{0, 1, 2, 3, 4}, []int{0, 2, 1, 2, 2, 2, 3, 2}
	}
	for _, tc := range []struct {
		name   string
		hurt   func(ptr, runs []int)
		valLen int
	}{
		{"start = xrows", func(_, r []int) { r[4] = 6 }, 8},
		{"start huge", func(_, r []int) { r[4] = 1 << 40 }, 8},
		{"start negative", func(_, r []int) { r[4] = -1 }, 8},
		{"run ends past x", func(_, r []int) { r[4], r[5] = 5, 2 }, 8},
		{"length negative", func(_, r []int) { r[5] = -1 }, 8},
		{"length huge", func(_, r []int) { r[5] = 1 << 62 }, 8},
		{"run reads past the values", func(_, _ []int) {}, 5},
		{"run pointers run backwards", func(p, _ []int) { p[3] = 1 }, 8},
		{"run pointers past the index", func(p, _ []int) { p[3] = 9 }, 8},
	} {
		for _, f32 := range []bool{false, true} {
			ptr, runs := good()
			tc.hurt(ptr, runs)
			var msg string
			var y []float64
			if f32 {
				msg, y = hostileRuns(t, ptr, runs, make([]float32, tc.valLen), 6, 4)
			} else {
				msg, y = hostileRuns(t, ptr, runs, make([]float64, tc.valLen), 6, 4)
			}
			at := fmt.Sprintf("%s, float32 %v", tc.name, f32)
			if !strings.HasPrefix(msg, "sparse: run product, row 2:") {
				t.Fatalf("%s: panic %q, want one from the wrapper naming row 2", at, msg)
			}
			for i, want := range []float64{1*1 + 2*2, 3*2 + 4*3, 0.5, 0.5} {
				if y[i] != want {
					t.Fatalf("%s: y[%d] = %v, want %v", at, i, y[i], want)
				}
			}
		}
	}
}
