package sparse_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fsaicomm/internal/sparse"
	"fsaicomm/internal/testsets"
)

// small deterministic test matrix:
//
//	[ 4 -1  0  0 ]
//	[-1  4 -1  0 ]
//	[ 0 -1  4 -1 ]
//	[ 0  0 -1  4 ]
func tri4() *sparse.CSR {
	c := sparse.NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		c.Add(i, i, 4)
		if i > 0 {
			c.Add(i, i-1, -1)
			c.Add(i-1, i, -1)
		}
	}
	return c.ToCSR()
}

func TestCSRValidate(t *testing.T) {
	m := tri4()
	if err := m.Validate(); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	if got := m.NNZ(); got != 10 {
		t.Fatalf("NNZ = %d, want 10", got)
	}
}

func TestCSRValidateDetectsCorruption(t *testing.T) {
	cases := map[string]func(*sparse.CSR){
		"rowptr-start":    func(m *sparse.CSR) { m.RowPtr[0] = 1 },
		"rowptr-decrease": func(m *sparse.CSR) { m.RowPtr[2] = 0 },
		"rowptr-end":      func(m *sparse.CSR) { m.RowPtr[len(m.RowPtr)-1]-- },
		"col-range":       func(m *sparse.CSR) { m.ColIdx[0] = 99 },
		"col-order":       func(m *sparse.CSR) { m.ColIdx[1], m.ColIdx[2] = m.ColIdx[2], m.ColIdx[1] },
		"val-length":      func(m *sparse.CSR) { m.Val = m.Val[:len(m.Val)-1] },
	}
	for name, corrupt := range cases {
		m := tri4()
		corrupt(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

func TestAtAndHas(t *testing.T) {
	m := tri4()
	if got := m.At(1, 0); got != -1 {
		t.Errorf("At(1,0) = %v, want -1", got)
	}
	if got := m.At(0, 3); got != 0 {
		t.Errorf("At(0,3) = %v, want 0", got)
	}
	if !m.Has(2, 3) || m.Has(0, 2) {
		t.Errorf("Has gave wrong structure answers")
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		m := testsets.RandomCSR(rng, rows, cols, 0.3)
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, rows)
		m.MulVec(x, y)
		d := m.Dense()
		for i := 0; i < rows; i++ {
			want := 0.0
			for j := 0; j < cols; j++ {
				want += d[i][j] * x[j]
			}
			if math.Abs(y[i]-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("trial %d: y[%d] = %v, want %v", trial, i, y[i], want)
			}
		}
	}
}

func TestMulVecShapePanics(t *testing.T) {
	m := tri4()
	for name, fn := range map[string]func(){
		"short-x": func() { m.MulVec(make([]float64, 3), make([]float64, 4)) },
		"short-y": func() { m.MulVec(make([]float64, 4), make([]float64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := testsets.RandomCSR(rng, 17, 11, 0.3)
	tt := m.Transpose().Transpose()
	if tt.Rows != m.Rows || tt.Cols != m.Cols || tt.NNZ() != m.NNZ() {
		t.Fatalf("shape changed under double transpose")
	}
	for i := 0; i < m.Rows; i++ {
		ca, va := m.Row(i)
		cb, vb := tt.Row(i)
		if len(ca) != len(cb) {
			t.Fatalf("row %d length changed", i)
		}
		for k := range ca {
			if ca[k] != cb[k] || va[k] != vb[k] {
				t.Fatalf("row %d entry %d changed", i, k)
			}
		}
	}
	if err := tt.Validate(); err != nil {
		t.Fatalf("double transpose invalid: %v", err)
	}
}

func TestTriangles(t *testing.T) {
	m := tri4()
	l := m.LowerTriangle()
	if l.NNZ() != 7 {
		t.Fatalf("lower triangle nnz = %d, want 7", l.NNZ())
	}
	// L holds exactly the entries of A on and below the diagonal.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := m.At(i, j)
			if j > i {
				want = 0
			}
			if l.Has(i, j) != (j <= i && m.Has(i, j)) || l.At(i, j) != want {
				t.Fatalf("(%d,%d): L = %v, want %v", i, j, l.At(i, j), want)
			}
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	if !tri4().IsSymmetric(1e-14) {
		t.Errorf("tridiagonal SPD matrix reported asymmetric")
	}
	c := sparse.NewCOO(3, 3)
	c.Add(0, 0, 1)
	c.Add(0, 1, 2)
	c.Add(1, 0, 3)
	c.Add(1, 1, 1)
	c.Add(2, 2, 1)
	if c.ToCSR().IsSymmetric(1e-14) {
		t.Errorf("asymmetric matrix reported symmetric")
	}
	// Structurally asymmetric.
	c2 := sparse.NewCOO(3, 3)
	c2.Add(0, 1, 2)
	c2.Add(0, 0, 1)
	c2.Add(1, 1, 1)
	c2.Add(2, 2, 1)
	if c2.ToCSR().IsSymmetric(1e-14) {
		t.Errorf("structurally asymmetric matrix reported symmetric")
	}
}

func TestCOOSumsDuplicates(t *testing.T) {
	c := sparse.NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(0, 0, 2.5)
	c.Add(1, 1, -1)
	m := c.ToCSR()
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
	if got := m.At(0, 0); got != 3.5 {
		t.Fatalf("At(0,0) = %v, want 3.5", got)
	}
}

func TestCOOEmptyRows(t *testing.T) {
	c := sparse.NewCOO(5, 5)
	c.Add(0, 0, 1)
	c.Add(4, 4, 1)
	m := c.ToCSR()
	if err := m.Validate(); err != nil {
		t.Fatalf("empty-row matrix invalid: %v", err)
	}
	if m.RowNNZ(2) != 0 {
		t.Fatalf("row 2 should be empty")
	}
}

func TestCOOOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range Add")
		}
	}()
	sparse.NewCOO(2, 2).Add(2, 0, 1)
}

func TestScaleAndNorms(t *testing.T) {
	m := tri4()
	m.Scale(2)
	if got := m.At(0, 0); got != 8 {
		t.Fatalf("scaled At(0,0) = %v, want 8", got)
	}
	if got := m.MaxNorm(); got != 8 {
		t.Fatalf("MaxNorm = %v, want 8", got)
	}
}

// Property: for any matrix built from random entries, Aᵀx through Transpose
// equals dense-transpose multiplication.
func TestQuickTransposeProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		m := testsets.RandomCSR(rng, rows, cols, 0.35)
		x := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, cols)
		m.Transpose().MulVec(x, y)
		d := m.Dense()
		for j := 0; j < cols; j++ {
			want := 0.0
			for i := 0; i < rows; i++ {
				want += d[i][j] * x[i]
			}
			if math.Abs(y[j]-want) > 1e-10*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone is deep — mutating the clone leaves the original intact.
func TestQuickCloneIsDeep(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := testsets.RandomCSR(rng, 1+rng.Intn(10), 1+rng.Intn(10), 0.5)
		if m.NNZ() == 0 {
			return true
		}
		c := m.Clone()
		c.Val[0] += 42
		c.ColIdx[0] = 0
		return m.Validate() == nil && (m.NNZ() == 0 || m.Val[0] != c.Val[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestIsSymmetricMatchesTranspose: the one-sweep check agrees with the
// definition — the matrix equals its transpose in pattern and, within the
// tolerance, in values — on matrices that are symmetric, that lack one
// entry's mirror, that have a mirror in the wrong place, and whose values
// differ across the diagonal.
func TestIsSymmetricMatchesTranspose(t *testing.T) {
	byTranspose := func(m *sparse.CSR, tol float64) bool {
		tr := m.Transpose()
		if m.Rows != m.Cols || tr.NNZ() != m.NNZ() {
			return false
		}
		for i := 0; i < m.Rows; i++ {
			ca, va := m.Row(i)
			cb, vb := tr.Row(i)
			if len(ca) != len(cb) {
				return false
			}
			for k := range ca {
				scale := math.Max(math.Max(math.Abs(va[k]), math.Abs(vb[k])), 1)
				if ca[k] != cb[k] || math.Abs(va[k]-vb[k]) > tol*scale {
					return false
				}
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(9))
	verdicts := map[bool]int{}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(12)
		c := sparse.NewCOO(n, n)
		for k := rng.Intn(3 * n); k >= 0; k-- {
			i, j, v := rng.Intn(n), rng.Intn(n), rng.NormFloat64()
			switch rng.Intn(8) {
			case 0: // no mirror
				c.Add(i, j, v)
			case 1: // mirror with another value
				c.Add(i, j, v)
				c.Add(j, i, v*(1+1e-6))
			default:
				c.Add(i, j, v)
				if i != j {
					c.Add(j, i, v)
				}
			}
		}
		m := c.ToCSR()
		for _, tol := range []float64{1e-10, 1e-3} {
			got, want := m.IsSymmetric(tol), byTranspose(m, tol)
			if got != want {
				t.Fatalf("trial %d tol %g: IsSymmetric %v, by transpose %v\n%v", trial, tol, got, want, m.Dense())
			}
			verdicts[got]++
		}
	}
	if verdicts[true] < 50 || verdicts[false] < 50 {
		t.Fatalf("verdicts %v: the trials do not exercise both answers", verdicts)
	}
}
