package sparse

import (
	"bytes"
	"testing"
)

// FuzzCSRValidate asserts Validate's safety contract on arbitrary (mostly
// corrupt) RowPtr/ColIdx encodings: it must never panic, and whenever it
// accepts a matrix, walking every row must be safe and the invariants must
// genuinely hold. Bytes decode one signed entry each, so negative offsets
// and out-of-range columns are well represented in the corpus.
func FuzzCSRValidate(f *testing.F) {
	valid := tri4()
	enc := func(xs []int) []byte {
		b := make([]byte, len(xs))
		for i, x := range xs {
			b[i] = byte(int8(x))
		}
		return b
	}
	f.Add(uint8(4), uint8(4), enc(valid.RowPtr), enc(valid.ColIdx))
	f.Add(uint8(4), uint8(4), enc([]int{1, 2, 5, 8, 10}), enc(valid.ColIdx))  // RowPtr[0] != 0
	f.Add(uint8(4), uint8(4), enc([]int{0, 5, 2, 8, 10}), enc(valid.ColIdx))  // decreasing, offset > nnz
	f.Add(uint8(4), uint8(4), enc([]int{0, -3, 5, 8, 10}), enc(valid.ColIdx)) // negative offset
	f.Add(uint8(4), uint8(4), enc(valid.RowPtr), enc([]int{0, 99, 0, 1, 2, 1, 2, 3, 2, 3}))
	f.Add(uint8(4), uint8(4), enc(valid.RowPtr), enc([]int{1, 0, 0, 1, 2, 1, 2, 3, 2, 3})) // unsorted
	f.Add(uint8(2), uint8(3), enc([]int{0, 0, 0}), []byte{})
	f.Add(uint8(0), uint8(0), enc([]int{0}), []byte{})
	f.Fuzz(func(t *testing.T, rows, cols uint8, rowPtrB, colIdxB []byte) {
		r, c := int(rows%16), int(cols%16)
		rp := make([]int, len(rowPtrB))
		for i, b := range rowPtrB {
			rp[i] = int(int8(b))
		}
		ci := make([]int, len(colIdxB))
		for i, b := range colIdxB {
			ci[i] = int(int8(b))
		}
		m := &CSR{Rows: r, Cols: c, RowPtr: rp, ColIdx: ci, Val: make([]float64, len(ci))}
		if err := m.Validate(); err != nil {
			return // rejections are fine; panics are not
		}
		nnz := 0
		for i := 0; i < r; i++ {
			row, _ := m.Row(i)
			prev := -1
			for _, col := range row {
				if col <= prev || col >= c {
					t.Fatalf("Validate accepted row %d with bad columns %v", i, row)
				}
				prev = col
			}
			nnz += len(row)
		}
		if nnz != m.NNZ() {
			t.Fatalf("rows sum to %d entries, NNZ says %d", nnz, m.NNZ())
		}
	})
}

// FuzzCOOToCSR asserts the COO→CSR conversion round trip: for arbitrary
// in-range triples (with duplicates), the result always validates and every
// position holds exactly the sum of its duplicate additions.
func FuzzCOOToCSR(f *testing.F) {
	f.Add(uint8(3), []byte{0, 0, 4, 1, 1, 4, 0, 1, 255})
	f.Add(uint8(1), []byte{0, 0, 1, 0, 0, 2, 0, 0, 3}) // all duplicates
	f.Add(uint8(5), []byte{})
	f.Add(uint8(4), []byte{3, 0, 7, 0, 3, 7, 2, 2, 0}) // explicit zero value
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		size := 1 + int(n%12)
		c := NewCOO(size, size)
		type pos struct{ i, j int }
		want := map[pos]float64{}
		for k := 0; k+2 < len(data); k += 3 {
			i, j := int(data[k])%size, int(data[k+1])%size
			v := float64(int8(data[k+2]))
			c.Add(i, j, v)
			want[pos{i, j}] += v
		}
		m := c.ToCSR()
		if err := m.Validate(); err != nil {
			t.Fatalf("ToCSR produced invalid CSR: %v", err)
		}
		if m.NNZ() != len(want) {
			t.Fatalf("NNZ = %d, want %d distinct positions", m.NNZ(), len(want))
		}
		for p, v := range want {
			if got := m.At(p.i, p.j); got != v {
				t.Fatalf("At(%d,%d) = %v, want %v", p.i, p.j, got, v)
			}
		}
	})
}

// FuzzReadMatrixMarket asserts the parser's safety contract: any input
// either fails with an error or yields a structurally valid CSR matrix
// whose round trip re-parses to the same shape. Seeds run under plain
// `go test`; `go test -fuzz=FuzzReadMatrixMarket ./internal/sparse` explores
// further.
func FuzzReadMatrixMarket(f *testing.F) {
	seeds := []string{
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n",
		"%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 4\n3 1 -1\n",
		"%%MatrixMarket matrix coordinate real general\n% comment\n\n1 1 1\n1 1 -2.5e-3\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",   // count mismatch
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n", // out of range
		"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",     // unsupported kind
		"",
		"garbage",
		"%%MatrixMarket matrix coordinate real general\n0 0 0\n",
		"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 nan\n",
		"%%MatrixMarket matrix coordinate real general\n4000000000000000 4000000000000000 0", // hostile size line
		"%%MatrixMarket matrix coordinate real general\n3 3 -1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1\u00a01 1\n", // non-ASCII white space
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMatrixMarket(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("parser accepted input but produced invalid CSR: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, m); err != nil {
			t.Fatalf("cannot re-serialize parsed matrix: %v", err)
		}
		back, err := ReadMatrixMarket(&buf)
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if back.Rows != m.Rows || back.Cols != m.Cols || back.NNZ() != m.NNZ() {
			t.Fatalf("round trip changed shape: %dx%d/%d vs %dx%d/%d",
				back.Rows, back.Cols, back.NNZ(), m.Rows, m.Cols, m.NNZ())
		}
	})
}
