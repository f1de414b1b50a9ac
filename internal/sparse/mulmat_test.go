package sparse

import (
	"math/rand"
	"testing"
)

// randomRectCSR builds a dense-ish random rectangular CSR with entries drawn
// from rng, keeping roughly density of the slots occupied but guaranteeing at
// least one entry per row so every row sum is non-trivial.
func randomRectCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	c := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		placed := false
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				c.Add(i, j, rng.NormFloat64())
				placed = true
			}
		}
		if !placed {
			c.Add(i, rng.Intn(cols), rng.NormFloat64())
		}
	}
	return c.ToCSR()
}

func packCols(cols [][]float64, k int) []float64 {
	n := len(cols[0])
	x := make([]float64, n*k)
	for c, v := range cols {
		for i := range v {
			x[i*k+c] = v[i]
		}
	}
	return x
}

// MulMat against k independent MulVec calls: bit-identical per column, for
// several shapes and batch sizes including k = 1.
func TestMulMatMatchesMulVecBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ rows, cols, k int }{
		{1, 1, 1}, {5, 3, 1}, {17, 17, 4}, {40, 23, 7}, {23, 40, 16},
	} {
		m := randomRectCSR(rng, tc.rows, tc.cols, 0.3)
		xcols := make([][]float64, tc.k)
		want := make([][]float64, tc.k)
		for c := range xcols {
			xcols[c] = make([]float64, tc.cols)
			for i := range xcols[c] {
				xcols[c][i] = rng.NormFloat64()
			}
			want[c] = make([]float64, tc.rows)
			m.MulVec(xcols[c], want[c])
		}
		x := packCols(xcols, tc.k)
		y := make([]float64, tc.rows*tc.k)
		m.MulMat(x, y, tc.k)
		for c := 0; c < tc.k; c++ {
			for i := 0; i < tc.rows; i++ {
				if y[i*tc.k+c] != want[c][i] {
					t.Fatalf("%dx%d k=%d: col %d row %d: MulMat %v != MulVec %v",
						tc.rows, tc.cols, tc.k, c, i, y[i*tc.k+c], want[c][i])
				}
			}
		}
	}
}

// MulMatCols computes exactly the listed columns and leaves the rest alone.
func TestMulMatColsMasking(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const k = 5
	m := randomRectCSR(rng, 30, 30, 0.2)
	x := make([]float64, 30*k)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	full := make([]float64, 30*k)
	m.MulMat(x, full, k)

	const sentinel = -123.5
	y := make([]float64, 30*k)
	for i := range y {
		y[i] = sentinel
	}
	cols := []int{0, 2, 4}
	m.MulMatCols(nil, x, y, k, cols)
	active := map[int]bool{0: true, 2: true, 4: true}
	for i := 0; i < 30; i++ {
		for c := 0; c < k; c++ {
			got := y[i*k+c]
			if active[c] {
				if got != full[i*k+c] {
					t.Fatalf("active col %d row %d: %v != %v", c, i, got, full[i*k+c])
				}
			} else if got != sentinel {
				t.Fatalf("masked col %d row %d overwritten: %v", c, i, got)
			}
		}
	}

	// nil mask is the full product.
	y2 := make([]float64, 30*k)
	m.MulMatCols(nil, x, y2, k, nil)
	for i := range y2 {
		if y2[i] != full[i] {
			t.Fatalf("nil mask differs at %d", i)
		}
	}
}

func TestMulMatShapePanics(t *testing.T) {
	m := tri4()
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"k0", func() { m.MulMat(make([]float64, 4), make([]float64, 4), 0) }},
		{"shortX", func() { m.MulMat(make([]float64, 7), make([]float64, 8), 2) }},
		{"shortY", func() { m.MulMat(make([]float64, 8), make([]float64, 7), 2) }},
		{"cols", func() { m.MulMatCols(nil, make([]float64, 3), make([]float64, 8), 2, []int{0}) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
			}()
			tc.call()
		}()
	}
}

// TestMulMatWideBlockZeroAllocs: an unmasked product builds no column list,
// whatever the width — a block wider than 16 used to allocate one per call
// (three per CG iteration per rank, and -batch-max is uncapped).
func TestMulMatWideBlockZeroAllocs(t *testing.T) {
	const k = 17
	rng := rand.New(rand.NewSource(23))
	m := randomRectCSR(rng, 30, 20, 0.2)
	m32 := NewCSR32(m)
	x := make([]float64, m.Cols*k)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, m.Rows*k)
	for name, mul := range map[string]func(){
		"CSR.MulMat":       func() { m.MulMat(x, y, k) },
		"CSR.MulMatCols":   func() { m.MulMatCols(nil, x, y, k, nil) },
		"CSR32.MulMatCols": func() { m32.MulMatCols(nil, x, y, k, nil) },
	} {
		if n := testing.AllocsPerRun(20, mul); n != 0 {
			t.Errorf("%s at k = %d: %v allocations per product, want 0", name, k, n)
		}
	}
}
