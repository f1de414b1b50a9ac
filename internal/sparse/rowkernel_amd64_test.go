package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
		mulMatWide(nil, rowPtr, colIdx, val, x, y, k, cols, 0, rows)
	}()
	for i, v := range all {
		if (i < 64 || i >= 64+yLen) && v != guard {
			t.Fatalf("word %d outside y was written: %v", i-64, v)
		}
	}
	return msg, y
}

// hostileVec is hostileProduct for the 1-wide entry walk (mulVec over no run
// index), with a w of n ones for the running dot when dot is set.
func hostileVec[V Value](t *testing.T, rowPtr, colIdx []int, val []V, xLen, yLen int, dot bool, rows int) (msg string, y []float64) {
	t.Helper()
	x := make([]float64, xLen)
	for i := range x {
		x[i] = float64(i + 1)
	}
	y, all := guarded(yLen, 0.5)
	var w []float64
	if dot {
		w, _ = guarded(yLen, 1)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		mulVec(nil, rowPtr, colIdx, val, x, y, w, 0, rows, 0)
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
// touched; so do the run products' refusals, 1-wide and k-wide
// (hostileRunCases), and the 1-wide entry walk's, with and without its
// running dot. Both value types.
func TestHostileCSRPanicsWithRowNamed(t *testing.T) {
	hostileRunCases(t)
	hostileVecCases(t)
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

	// A run index shorter than the rows asked for is refused before any row.
	msg, y := hostileRuns(t, []int{0, 1, 2}, []int{0, 2, 1, 2}, make([]float64, 8), 6, 4, 2, nil)
	if !strings.Contains(msg, "the run index ends at row 2") || y[0] != 0.5 {
		t.Fatalf("short run index: panic %q, y[0] = %v; want it refused before any row", msg, y[0])
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

// hostileRuns runs rows [0, rows) of the run product at width k on the
// assembly.s wrapper (mulVec at k = 1, mulMatWide wider), every row's
// values two apart in val, x holding xrows·k values, and returns what it
// panicked with ("" if it did not). y is filled with 0.5 between guard
// words; the guard words must survive.
func hostileRuns[V Value](t *testing.T, ptr, runs []int, val []V, xrows, rows, k int, cols []int) (msg string, y []float64) {
	t.Helper()
	x := make([]float64, xrows*k)
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
	y, all := guarded(rows*k, 0.5)
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		if r := (&RunIndex{ptr: ptr, runs: runs}); k == 1 {
			mulVec(r, rowPtr, nil, val, x, y, nil, 0, rows, 0)
		} else {
			mulMatWide(r, rowPtr, nil, val, x, y, k, cols, 0, rows)
		}
	}()
	for i, v := range all {
		if (i < 64 || i >= 64+rows*k) && v != guard {
			t.Fatalf("word %d outside y was written: %v", i-64, v)
		}
	}
	return msg, y
}

// hostileRunCases: the run kernels refuse, with the row named and nothing
// of that row or the rows after it written, a run starting at or past the
// rows of x (or negative), a run ending past them, a negative length, a run
// reading past the values, and run pointers that run backwards or past the
// index — 1-wide, and k-wide at widths 2 and 3 under adjacent, single-column
// and split masks where the CPU runs the k-wide assembly. The rows before
// the bad one hold RowDot's sums in the first pair of active columns, the
// one walked when the row is refused. Both value types.
func hostileRunCases(t *testing.T) {
	// 4 rows over an x of 6 rows: row i is the run (i, 2), values 2i and 2i+1.
	good := func() (ptr, runs []int) {
		return []int{0, 1, 2, 3, 4}, []int{0, 2, 1, 2, 2, 2, 3, 2}
	}
	type width struct {
		k    int
		cols []int
	}
	widths := []width{{1, nil}}
	if sse3 {
		widths = append(widths, width{2, nil}, width{2, []int{1}}, width{3, []int{0, 2}}, width{3, nil})
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
		for _, w := range widths {
			for _, f32 := range []bool{false, true} {
				ptr, runs := good()
				tc.hurt(ptr, runs)
				var msg string
				var y []float64
				if f32 {
					msg, y = hostileRuns(t, ptr, runs, make([]float32, tc.valLen), 6, 4, w.k, w.cols)
				} else {
					msg, y = hostileRuns(t, ptr, runs, make([]float64, tc.valLen), 6, 4, w.k, w.cols)
				}
				at := fmt.Sprintf("%s, k %d, cols %v, float32 %v", tc.name, w.k, w.cols, f32)
				if !strings.HasPrefix(msg, "sparse: run product, row 2:") {
					t.Fatalf("%s: panic %q, want one from the wrapper naming row 2", at, msg)
				}
				// The first pair of active columns is walked first and
				// refused at row 2, so the panic comes before any other.
				active := w.cols
				if active == nil {
					active = []int{0, 1}[:min(2, w.k)]
				}
				active = active[:min(2, len(active))]
				for i := 0; i < 4; i++ {
					for c := 0; c < w.k; c++ {
						want := 0.5
						if i < 2 && slices.Contains(active, c) {
							// values 2i+1, 2i+2 times x rows i, i+1 of column c
							want = float64(2*i+1)*float64(i*w.k+c+1) + float64(2*i+2)*float64((i+1)*w.k+c+1)
						}
						if got := y[i*w.k+c]; got != want {
							t.Fatalf("%s: y[%d, %d] = %v, want %v", at, i, c, got, want)
						}
					}
				}
			}
		}
	}
}

// hostileVecCases: the 1-wide entry walk (SSE2, so on every amd64) refuses,
// with the row named, nothing of that row or the rows after it written and
// nothing outside y touched, a column index at or past len(x) or negative, a
// RowPtr that runs backwards, is negative or runs past the stored entries,
// values shorter than the indices, and a RowPtr, y or w too short for the
// rows asked for — whether or not it carries the running dot.
func hostileVecCases(t *testing.T) {
	// 4 rows × 3 columns, two entries a row; row 2 is the one each case breaks.
	good := func() (rowPtr, colIdx []int) {
		return []int{0, 2, 4, 6, 8}, []int{0, 1, 1, 2, 0, 2, 0, 1}
	}
	for _, tc := range []struct {
		name       string
		hurt       func(rowPtr, colIdx []int) (rp, ci []int)
		valLen     int
		xLen, yLen int // 3 and 4 fit
		row        int // the row the panic must name
	}{
		{"column index = len(x)", func(rp, ci []int) ([]int, []int) { ci[5] = 3; return rp, ci }, 8, 3, 4, 2},
		{"column index huge", func(rp, ci []int) ([]int, []int) { ci[4] = 1 << 40; return rp, ci }, 8, 3, 4, 2},
		{"column index negative", func(rp, ci []int) ([]int, []int) { ci[4] = -1; return rp, ci }, 8, 3, 4, 2},
		{"RowPtr runs backwards", func(rp, ci []int) ([]int, []int) { rp[3] = 3; return rp, ci }, 8, 3, 4, 2},
		{"RowPtr negative", func(rp, ci []int) ([]int, []int) { rp[2] = -4; return rp, ci }, 8, 3, 4, 1},
		{"RowPtr past ColIdx", func(rp, ci []int) ([]int, []int) { rp[3] = 9; return rp, ci }, 8, 3, 4, 2},
		{"Val shorter than ColIdx", func(rp, ci []int) ([]int, []int) { return rp, ci }, 5, 3, 4, 2},
		{"RowPtr short", func(rp, ci []int) ([]int, []int) { return rp[:3], ci }, 8, 3, 4, 2},
		{"x short", func(rp, ci []int) ([]int, []int) { return rp, ci }, 8, 2, 4, 1},
		{"y short", func(rp, ci []int) ([]int, []int) { return rp, ci }, 8, 3, 2, 2},
	} {
		for _, dot := range []bool{false, true} {
			for _, f32 := range []bool{false, true} {
				rowPtr, colIdx := tc.hurt(good())
				var msg string
				var y []float64
				if f32 {
					msg, y = hostileVec(t, rowPtr, colIdx, make([]float32, tc.valLen), tc.xLen, tc.yLen, dot, 4)
				} else {
					msg, y = hostileVec(t, rowPtr, colIdx, make([]float64, tc.valLen), tc.xLen, tc.yLen, dot, 4)
				}
				at := fmt.Sprintf("%s, dot %v, float32 %v", tc.name, dot, f32)
				if !strings.HasPrefix(msg, "sparse: product") || !strings.Contains(msg, fmt.Sprintf("row %d", tc.row)) {
					t.Fatalf("%s: panic %q, want one from the wrapper naming row %d", at, msg, tc.row)
				}
				for i := tc.row; i < len(y); i++ {
					if y[i] != 0.5 {
						t.Fatalf("%s: y[%d] of the bad row or one after it was written: %v", at, i, y[i])
					}
				}
			}
		}
	}
}

// withoutAVX2 runs f with the 1-wide run product on the body a CPU without
// AVX2 takes (mulVecRunsGo). Not for tests that run in parallel.
func withoutAVX2(f func()) {
	defer func(on bool) { avx2 = on }(avx2)
	avx2 = false
	f()
}

// runRows builds a pattern of cols columns from rows of runs (start, length
// pairs; a row without runs is empty), with values drawn from rng.
func runRows(rng *rand.Rand, rows [][]int) (rowPtr, colIdx []int, val []float64) {
	rowPtr = []int{0}
	for _, runs := range rows {
		for q := 0; q < len(runs); q += 2 {
			for j := 0; j < runs[q+1]; j++ {
				colIdx = append(colIdx, runs[q]+j)
				val = append(val, rng.NormFloat64())
			}
		}
		rowPtr = append(rowPtr, len(colIdx))
	}
	return rowPtr, colIdx, val
}

// TestRunKernelEquivalence: the 1-wide run product — the AVX2 body where
// the CPU has AVX2, and the fallback forced — writes the bits of the portable
// entry walk (mulVecRows) and returns dotRows' running dot, for runs of
// every length from 1 to 17 (a run of 8 is one line of x) at every offset
// mod 8, alone, two to a row and after rows with no runs, in both value
// types, with and without w, over more rows than one block. x and w hold
// NaN, ±Inf, −0 and subnormals beside normal numbers. The one NaN in them
// is the hardware's default NaN, the one that Inf−Inf and 0·Inf make, so
// every NaN of a sum has that bit pattern whatever the order of a
// multiply's or an add's operands, and bit for bit holds for NaNs too.
func TestRunKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const cols = 64
	var rows [][]int
	for rep := 0; rep < 12; rep++ {
		for n := 1; n <= 17; n++ {
			s := rng.Intn(cols - n + 1)
			if rep%2 == 0 {
				s = (rep / 2 % 8) * ((cols - n) / 8) // runs starting on lines and off them
			}
			m := 1 + rng.Intn(17)
			rows = append(rows, []int{s, n}, nil, []int{0, min(n, 20), 24, m})
		}
	}
	rowPtr, colIdx, val := runRows(rng, rows)
	r := buildRuns(rowPtr, colIdx, countRuns(rowPtr, colIdx))
	if len(rows) <= rowBlock {
		t.Fatalf("%d rows fit one block", len(rows))
	}
	val32 := make([]float32, len(val))
	for i, v := range val {
		val32[i] = float32(v)
	}
	nan := math.Float64frombits(0xfff8000000000000)
	odd := []float64{nan, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, -2.5e-310, math.SmallestNonzeroFloat64 * 3}
	special := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			if rng.Intn(4) == 0 {
				v[i] = odd[rng.Intn(len(odd))]
			} else {
				v[i] = rng.NormFloat64()
			}
		}
		return v
	}
	x, wOdd := special(cols), special(len(rows))
	bodies := []struct {
		name string
		run  func(f func())
	}{{"fallback", withoutAVX2}}
	if avx2 {
		bodies = append(bodies, struct {
			name string
			run  func(f func())
		}{"AVX2", func(f func()) { f() }})
	}
	check := func(at string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: row %d is %v (%#x), the entry walk gives %v (%#x)", at, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	for _, body := range bodies {
		for _, w := range [][]float64{nil, wOdd} {
			for _, f32 := range []bool{false, true} {
				at := fmt.Sprintf("%s, w %v, float32 %v", body.name, w != nil, f32)
				want, got := make([]float64, len(rows)), make([]float64, len(rows))
				var dot float64
				body.run(func() {
					if f32 {
						mulVecRows(rowPtr, colIdx, val32, x, want, 0, len(rows))
						dot = mulVec(r, rowPtr, colIdx, val32, x, got, w, 0, len(rows), 0)
					} else {
						mulVecRows(rowPtr, colIdx, val, x, want, 0, len(rows))
						dot = mulVec(r, rowPtr, colIdx, val, x, got, w, 0, len(rows), 0)
					}
				})
				check(at, got, want)
				wantDot := 0.0
				if w != nil {
					wantDot = dotRows(w, want, 0, len(rows), 0)
				}
				check(at+", w·y", []float64{dot}, []float64{wantDot})
			}
		}
	}
}

// TestRunIndexValidatesOnce: the first products on a freshly built index,
// made by many goroutines at once, write identical bits and validate the
// index once (counted through validateRuns); later products do not validate
// it again. A hostile index, validated before the good one and another
// after it, is refused at its bad row both times: no verdict leaks from one
// index to another.
func TestRunIndexValidatesOnce(t *testing.T) {
	var calls atomic.Int64
	defer func(v func(*RunIndex)) { validateRuns = v }(validateRuns)
	validate := validateRuns
	validateRuns = func(r *RunIndex) { calls.Add(1); validate(r) }

	hostile := func() {
		t.Helper()
		ptr, runs := []int{0, 1, 2, 3, 4}, []int{0, 2, 1, 2, 5, 2, 3, 2} // row 2 leaves an x of 6
		msg, _ := hostileRuns(t, ptr, runs, make([]float64, 8), 6, 4, 1, nil)
		if !strings.HasPrefix(msg, "sparse: run product, row 2:") {
			t.Fatalf("hostile index: panic %q, want row 2 refused", msg)
		}
	}
	hostile()
	if n := calls.Load(); n != 1 {
		t.Fatalf("the hostile index was validated %d times", n)
	}

	rng := rand.New(rand.NewSource(45))
	var rows [][]int
	for i := 0; i < 3*rowBlock; i++ {
		rows = append(rows, []int{rng.Intn(8) * 8, 8, 64 + rng.Intn(20), 1 + rng.Intn(9)})
	}
	rowPtr, colIdx, val := runRows(rng, rows)
	m := &CSR{Rows: len(rows), Cols: 96, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	r := IndexRuns(rowPtr, colIdx)
	if r == nil {
		t.Fatal("a pattern of runs of 8 got no run index")
	}
	x, w := make([]float64, m.Cols), make([]float64, m.Rows)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	const goroutines = 16
	ys, dots := make([][]float64, goroutines), make([]float64, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range ys {
		ys[g] = make([]float64, m.Rows)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			dots[g] = m.MulVecDot(r, x, ys[g], w)
		}()
	}
	close(start)
	wg.Wait()
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d goroutines' first products validated the index %d times, want once", goroutines, n-1)
	}
	for g := 1; g < goroutines; g++ {
		if !slices.Equal(ys[g], ys[0]) || math.Float64bits(dots[g]) != math.Float64bits(dots[0]) {
			t.Fatalf("goroutine %d's product differs from goroutine 0's", g)
		}
	}
	want := make([]float64, m.Rows)
	mulVecRows(rowPtr, colIdx, val, x, want, 0, m.Rows)
	if !slices.Equal(ys[0], want) {
		t.Fatal("the concurrent first products differ from the entry walk")
	}
	m.MulVecDot(r, x, ys[0], w)
	hostile()
	if n := calls.Load(); n != 3 {
		t.Fatalf("%d validations after a second product on the good index and a second hostile one, want 3", n)
	}
}

// TestRunBlockCheckEdges: the O(1) block check at its edges, 1-wide and
// 2-wide, on 4 rows of one run of 2 each over an x of 6 rows. Runs that end
// exactly on x's last row and take exactly the values there are run;
// one value short, a run one past x and backwards run pointers on the last
// row are refused naming row 3, with rows 0–2 written.
func TestRunBlockCheckEdges(t *testing.T) {
	for _, tc := range []struct {
		name      string
		ptr, runs []int
		valLen    int
		refused   bool
	}{
		{"exact fit", []int{0, 1, 2, 3, 4}, []int{0, 2, 1, 2, 2, 2, 4, 2}, 8, false},
		{"one value short", []int{0, 1, 2, 3, 4}, []int{0, 2, 1, 2, 2, 2, 4, 2}, 7, true},
		{"one past x", []int{0, 1, 2, 3, 4}, []int{0, 2, 1, 2, 2, 2, 5, 2}, 8, true},
		{"last pointers backwards", []int{0, 1, 2, 3, 2}, []int{0, 2, 1, 2, 2, 2, 4, 2}, 8, true},
	} {
		for _, k := range []int{1, 2} {
			if k == 2 && !sse3 {
				continue
			}
			msg, y := hostileRuns(t, tc.ptr, tc.runs, make([]float64, tc.valLen), 6, 4, k, nil)
			at := fmt.Sprintf("%s, k %d", tc.name, k)
			if refused := msg != ""; refused != tc.refused || refused && !strings.HasPrefix(msg, "sparse: run product, row 3:") {
				t.Fatalf("%s: panic %q, want a refusal of row 3: %v", at, msg, tc.refused)
			}
			for i := range y {
				if written := y[i] != 0.5; written != (i < 3*k || !tc.refused) {
					t.Fatalf("%s: y[%d] = %v", at, i, y[i])
				}
			}
		}
	}
}
