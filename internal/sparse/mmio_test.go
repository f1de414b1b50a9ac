package sparse_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"fsaicomm/internal/matgen"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/testsets"
)

// readMatrixMarketReference is the reader the chunked one replaced, kept as
// its oracle: a bufio.Scanner over the lines, fields split by bytes.Fields,
// indices by strconv.Atoi, values by ParseFloat, each entry added to a COO in
// file order. Its matrix and its error text are what ReadMatrixMarket must
// give, bit for bit and byte for byte.
func readMatrixMarketReference(r io.Reader) (*sparse.CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<26)
	if !sc.Scan() {
		return nil, fmt.Errorf("sparse: empty Matrix Market stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("sparse: bad Matrix Market header %q", sc.Text())
	}
	if header[2] != "coordinate" || header[3] != "real" {
		return nil, fmt.Errorf("sparse: unsupported Matrix Market kind %q (only coordinate real)", sc.Text())
	}
	symmetric := false
	switch header[4] {
	case "general":
	case "symmetric":
		symmetric = true
	default:
		return nil, fmt.Errorf("sparse: unsupported Matrix Market symmetry %q", header[4])
	}
	atoi := func(f []byte) (int, error) { return strconv.Atoi(string(f)) }
	var rows, cols, nnz int
	var coo *sparse.COO
	seen := 0
	line := 1
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || text[0] == '%' {
			continue
		}
		f := bytes.Fields(text)
		if coo == nil {
			if len(f) != 3 {
				return nil, fmt.Errorf("sparse: line %d: bad size line %q", line, text)
			}
			var err error
			if rows, err = atoi(f[0]); err != nil {
				return nil, fmt.Errorf("sparse: line %d: %v", line, err)
			}
			if cols, err = atoi(f[1]); err != nil {
				return nil, fmt.Errorf("sparse: line %d: %v", line, err)
			}
			if nnz, err = atoi(f[2]); err != nil {
				return nil, fmt.Errorf("sparse: line %d: %v", line, err)
			}
			if rows < 0 || cols < 0 || nnz < 0 {
				return nil, fmt.Errorf("sparse: line %d: negative size in %q", line, text)
			}
			if rows > sparse.MaxMatrixMarketDim || cols > sparse.MaxMatrixMarketDim {
				return nil, fmt.Errorf("sparse: line %d: size %dx%d exceeds the %d-row/column limit", line, rows, cols, sparse.MaxMatrixMarketDim)
			}
			if nnz > rows*cols {
				return nil, fmt.Errorf("sparse: line %d: %d entries declared for a %dx%d matrix", line, nnz, rows, cols)
			}
			coo = sparse.NewCOO(rows, cols)
			continue
		}
		if len(f) != 3 {
			return nil, fmt.Errorf("sparse: line %d: bad entry line %q", line, text)
		}
		i, err := atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: line %d: %v", line, err)
		}
		j, err := atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: line %d: %v", line, err)
		}
		v, err := strconv.ParseFloat(string(f[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("sparse: line %d: %v", line, err)
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("sparse: line %d: index (%d,%d) out of range for %dx%d", line, i, j, rows, cols)
		}
		// The one change since: an entry of a symmetric file whose mirror
		// lies outside the matrix used to panic in COO.Add.
		if symmetric && (i > cols || j > rows) {
			return nil, fmt.Errorf("sparse: line %d: index (%d,%d) has no mirror in a symmetric %dx%d matrix", line, i, j, rows, cols)
		}
		if symmetric {
			coo.AddSym(i-1, j-1, v)
		} else {
			coo.Add(i-1, j-1, v)
		}
		seen++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if coo == nil {
		return nil, fmt.Errorf("sparse: missing Matrix Market size line")
	}
	if seen != nnz {
		return nil, fmt.Errorf("sparse: Matrix Market declared %d entries, found %d", nnz, seen)
	}
	return coo.ToCSR(), nil
}

// sameCSRBits says in what, if anything, two parse results differ: error
// text, shape, pattern or value bits.
func sameCSRBits(got *sparse.CSR, gotErr error, want *sparse.CSR, wantErr error) error {
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return fmt.Errorf("error %v, reference %v", gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			return fmt.Errorf("error %q, reference %q", gotErr, wantErr)
		}
		return nil
	case got.Rows != want.Rows || got.Cols != want.Cols || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx):
		return fmt.Errorf("pattern differs: %dx%d/%d, reference %dx%d/%d", got.Rows, got.Cols, got.NNZ(), want.Rows, want.Cols, want.NNZ())
	}
	for k := range want.Val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			return fmt.Errorf("value %d is %v, reference %v", k, got.Val[k], want.Val[k])
		}
	}
	return nil
}

// mmEdgeSeeds are the inputs the chunked reader is held to the reference on
// first: line ends and separators of every kind, values the integer path
// must leave to ParseFloat (or convert exactly), indices it must leave to
// atoi, comments and blank lines wherever a chunk may be cut, duplicates in
// a symmetric file, and counts that disagree with the size line.
var mmEdgeSeeds = []string{
	"%%MatrixMarket matrix coordinate real general\r\n3 3 3\r\n1 1 1\r\n2 2 2.5\r\n3 3 -1e-3\r\n",
	"%%MatrixMarket matrix coordinate real general\n3 3 3\n1\t1\t4\n2\v2\f-0\n \t3 3 7 \t\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n2 2 1\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 2\n\u00851 1 1\n2 2 1　\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n2 2 1  \n",
	"%%MatrixMarket matrix coordinate real general\n2 2 4\n1 1 +1\n1 2 -0\n2 1 +0\n2 2 -7\n",
	"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1e400\n",
	"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 nan\n",
	"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 -Inf\n",
	"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 0x1p-2\n",
	"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1_0\n",
	"%%MatrixMarket matrix coordinate real general\n1 1 3\n1 1 123456789012345\n1 1 -999999999999999\n1 1 1234567890123456\n",
	"%%MatrixMarket matrix coordinate real general\n1 1 3\n1 1 000000000000001\n1 1 9007199254740993\n1 1 -\n",
	"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 +-1\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 2\n0000000000000000001 1 1\n2 000000000000000002 1\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n+1 1 1\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 -1 1\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 3 1\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1a 1 1\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1 1\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\x00\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n2 2 2",
	"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n2 2 2\n2 1 3\n",
	"%%MatrixMarket matrix coordinate real general\n4 4 6\n% a\n1 1 1\n\n% b\n2 2 2\n   \n3 3 3\n%\n4 4 4\n\n\n1 2 5\n% c\n2 1 6\n%\n",
	"%%MatrixMarket matrix coordinate real general\n4 4 5\n1 1 1\n% cut here?\n2 2 2\n\n3 3 3\n% or here?\n4 4 4\n1 1 x\n2 2 2\n",
	"%%MatrixMarket matrix coordinate real symmetric\n3 3 6\n2 1 1\n2 1 2\n1 1 3\n2 1 -3\n3 3 1\n3 2 0.1\n",
	"%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 2 1\n3 3 -0\n",
	"%%MatrixMarket matrix coordinate real symmetric\n3 2 2\n2 1 1\n3 1 1\n",
	"%%MatrixMarket matrix coordinate real symmetric\n2 3 2\n1 2 1\n2 2 1\n",
	"%%MatrixMarket Matrix Coordinate Real General\r\n% c\r\n\r\n 2 2 1 \r\n2 1 1.5\r\n",
	"%%MatrixMarket matrix coordinate real hermitian\r\n1 1 1\r\n1 1 1\r\n",
	"%%MatrixMarket matrix coordinate real general\n2 2\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1 1\n1 1 1\n",
	"%%MatrixMarket matrix coordinate real general\n\n% only comments\n\n",
	"%%MatrixMarket matrix coordinate real general",
	"\n",
}

// FuzzReadMatrixMarketMatchesReference holds the chunked reader to the line
// by line one at every chunk count from 1 to 5: the same matrix bit for bit,
// or the same error text.
func FuzzReadMatrixMarketMatchesReference(f *testing.F) {
	for _, s := range mmEdgeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := readMatrixMarketReference(bytes.NewReader(data))
		got, err := sparse.ReadMatrixMarket(bytes.NewReader(data))
		if d := sameCSRBits(got, err, want, wantErr); d != nil {
			t.Fatalf("ReadMatrixMarket: %v", d)
		}
		for chunks := 1; chunks <= 5; chunks++ {
			got, err := sparse.ParseMatrixMarket(data, chunks)
			if d := sameCSRBits(got, err, want, wantErr); d != nil {
				t.Fatalf("%d chunks: %v", chunks, d)
			}
		}
	})
}

// TestReadMatrixMarketMatchesReferenceLarge holds the chunked reader to the
// reference on whole files: random values in %.17g, a symmetric file with
// short integer values, and the same files with a line gone bad at the end.
func TestReadMatrixMarketMatchesReferenceLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var general, symmetric bytes.Buffer
	if err := sparse.WriteMatrixMarket(&general, testsets.RandomCSR(rng, 900, 700, 0.02)); err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteMatrixMarketSymmetric(&symmetric, matgen.Poisson3D(12, 11, 10)); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"general": general.Bytes(), "symmetric": symmetric.Bytes()} {
		for _, data := range [][]byte{body, append(slices.Clip(body), "1 1 1e999\n"...)} {
			want, wantErr := readMatrixMarketReference(bytes.NewReader(data))
			for chunks := 1; chunks <= 7; chunks++ {
				got, err := sparse.ParseMatrixMarket(data, chunks)
				if d := sameCSRBits(got, err, want, wantErr); d != nil {
					t.Fatalf("%s, %d chunks: %v", name, chunks, d)
				}
			}
		}
	}
}

// TestMatrixMarketFillerAllocatesLittle: 8 MiB of blank lines, or of comment
// lines, cost the body and little beside — no entry array is sized from the
// bytes or the lines of a body that holds no entries. The reader allocates
// the body once; under -race bytes.Buffer's growth allocates it twice, so
// the bound is twice the body and a little: entry arrays sized from the
// bytes would take 16 B per 6.
func TestMatrixMarketFillerAllocatesLittle(t *testing.T) {
	for _, filler := range []string{"\n", "  \r\n", "%\n", "% comment\n"} {
		body := "%%MatrixMarket matrix coordinate real general\n3 3 1\n" + strings.Repeat(filler, 8<<20/len(filler)) + "1 1 1\n"
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := sparse.ReadMatrixMarket(strings.NewReader(body))
		runtime.ReadMemStats(&after)
		if err != nil || m.NNZ() != 1 {
			t.Fatalf("filler %q: %v", filler, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*uint64(len(body))+1<<20 {
			t.Errorf("filler %q: a %d-byte body allocated %d bytes", filler, len(body), grew)
		}
	}
}

// BenchmarkReadMatrixMarket50k parses the 37³ Poisson system the benchmark
// uploads, with the reference and with the chunked reader at 1 and 2 chunks.
func BenchmarkReadMatrixMarket50k(b *testing.B) {
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarket(&buf, matgen.Poisson3D(37, 37, 37)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := readMatrixMarketReference(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, chunks := range []int{1, 2} {
		b.Run(fmt.Sprintf("chunks%d", chunks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sparse.ParseMatrixMarket(data, chunks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

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
