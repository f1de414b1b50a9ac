package sparse_test

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"fsaicomm/internal/sparse"
	"fsaicomm/internal/testsets"
)

func TestMatrixMarketRoundTripGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := testsets.RandomCSR(rng, 13, 9, 0.3)
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := sparse.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != m.Rows || got.Cols != m.Cols || got.NNZ() != m.NNZ() {
		t.Fatalf("shape/nnz changed: %dx%d/%d vs %dx%d/%d",
			got.Rows, got.Cols, got.NNZ(), m.Rows, m.Cols, m.NNZ())
	}
	for i := 0; i < m.Rows; i++ {
		ca, va := m.Row(i)
		cb, vb := got.Row(i)
		for k := range ca {
			if ca[k] != cb[k] || math.Abs(va[k]-vb[k]) > 1e-15*math.Abs(va[k]) {
				t.Fatalf("row %d entry %d mismatch", i, k)
			}
		}
	}
}

func TestMatrixMarketRoundTripSymmetric(t *testing.T) {
	m := tri4()
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarketSymmetric(&buf, m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "symmetric") {
		t.Fatalf("missing symmetric header: %q", buf.String())
	}
	got, err := sparse.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != m.NNZ() {
		t.Fatalf("NNZ = %d, want %d", got.NNZ(), m.NNZ())
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if got.At(i, j) != m.At(i, j) {
				t.Fatalf("(%d,%d) = %v, want %v", i, j, got.At(i, j), m.At(i, j))
			}
		}
	}
}

func TestMatrixMarketComments(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment

2 2 2
1 1 3.5
2 2 -1
`
	m, err := sparse.ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 3.5 || m.At(1, 1) != -1 {
		t.Fatalf("values wrong")
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"bad-header":  "hello\n1 1 1\n1 1 1\n",
		"bad-kind":    "%%MatrixMarket matrix array real general\n1 1\n1\n",
		"bad-sym":     "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
		"short-size":  "%%MatrixMarket matrix coordinate real general\n2 2\n",
		"bad-index":   "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
		"bad-value":   "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 zzz\n",
		"wrong-count": "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
		"no-size":     "%%MatrixMarket matrix coordinate real general\n% only comments\n",
		// Hostile size lines: each must be refused from the size line alone,
		// before anything is allocated from it.
		"huge-dims":    "%%MatrixMarket matrix coordinate real general\n4000000000000000 4000000000000000 0",
		"over-cap":     "%%MatrixMarket matrix coordinate real general\n16777217 1 0\n",
		"negative-dim": "%%MatrixMarket matrix coordinate real general\n-2 2 0\n",
		"negative-nnz": "%%MatrixMarket matrix coordinate real general\n2 2 -1\n",
		"nnz-too-big":  "%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 1\n",
		"nnz-absurd":   "%%MatrixMarket matrix coordinate real general\n2 2 4000000000000000\n1 1 1\n",
	}
	for name, in := range cases {
		if _, err := sparse.ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("%s: error not detected", name)
		}
	}
}

// TestMatrixMarketSizeLineAllocatesNothing: a size line that declares far
// more entries than the body holds must cost memory in proportion to the
// body, not to the declaration.
func TestMatrixMarketSizeLineAllocatesNothing(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n16000000 16000000 200000000000000\n1 1 1\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := sparse.ReadMatrixMarket(strings.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("short body accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("rejecting a %d-byte body allocated %d bytes", len(in), grew)
	}
}

// TestMatrixMarketParseAllocations: parsing allocates per matrix, not per
// line — the scanner buffer, the header and the (doubling) entry arrays.
func TestMatrixMarketParseAllocations(t *testing.T) {
	var buf bytes.Buffer
	const n = 2000
	c := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 2.5)
		if i > 0 {
			c.AddSym(i, i-1, -1.0/3)
		}
	}
	if err := sparse.WriteMatrixMarket(&buf, c.ToCSR()); err != nil {
		t.Fatal(err)
	}
	mm := buf.Bytes()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := sparse.ReadMatrixMarket(bytes.NewReader(mm)); err != nil {
			t.Error(err)
		}
	})
	if allocs > 50 {
		t.Errorf("%v allocations for %d lines; the parser allocates per line again", allocs, 3*n)
	}
}
