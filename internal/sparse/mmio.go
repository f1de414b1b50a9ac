package sparse

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Matrix Market text codec. Supports the subset of the format the tooling
// needs: "matrix coordinate real {general|symmetric}" with 1-based indices
// and '%' comments. Symmetric files store only the lower triangle; reading
// mirrors the entries.

// WriteMatrixMarket writes m in coordinate/general form.
func WriteMatrixMarket(w io.Writer, m *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, c+1, vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteMatrixMarketSymmetric writes the lower triangle of a symmetric m in
// coordinate/symmetric form.
func WriteMatrixMarketSymmetric(w io.Writer, m *CSR) error {
	l := m.LowerTriangle()
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real symmetric\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, l.NNZ()); err != nil {
		return err
	}
	for i := 0; i < l.Rows; i++ {
		cols, vals := l.Row(i)
		for k, c := range cols {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, c+1, vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// MaxMatrixMarketDim is the largest row or column count ReadMatrixMarket
// accepts. The size line of a file is untrusted input and the CSR row
// pointer is allocated from it, so it is bounded before anything is
// allocated: 1<<24 rows (a 128 MiB row pointer) is four times the largest
// matrix of the paper's test set.
const MaxMatrixMarketDim = 1 << 24

// mmPresize bounds the entry capacity reserved up front from the declared
// entry count. A stream cannot be asked how many bytes it still holds, so a
// declared count is trusted only this far; beyond it the entry arrays double
// as entries are actually read, so a body that runs short is rejected by the
// final count check having allocated no more than twice what it delivered.
const mmPresize = 1 << 16

// ReadMatrixMarket parses a Matrix Market stream into a CSR matrix. Sizes
// that are negative, beyond MaxMatrixMarketDim, or that declare more entries
// than the matrix has positions are rejected before any allocation.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
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

	var rows, cols, nnz int
	var coo *COO
	declared := 0 // entry capacity the size line asks for
	seen := 0
	line := 1
	var f [4][]byte // fields of the current line, one spare to detect a fourth
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || text[0] == '%' {
			continue
		}
		nf := splitFields(text, f[:])
		if coo == nil {
			if nf != 3 {
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
			if rows > MaxMatrixMarketDim || cols > MaxMatrixMarketDim {
				return nil, fmt.Errorf("sparse: line %d: size %dx%d exceeds the %d-row/column limit", line, rows, cols, MaxMatrixMarketDim)
			}
			if nnz > rows*cols { // no overflow: both factors are ≤ 2²⁴
				return nil, fmt.Errorf("sparse: line %d: %d entries declared for a %dx%d matrix", line, nnz, rows, cols)
			}
			coo = NewCOO(rows, cols)
			declared = nnz
			if symmetric {
				declared = 2 * nnz
			}
			coo.Reserve(min(declared, mmPresize))
			continue
		}
		if nf != 3 {
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
		// The conversion does not escape ParseFloat, so short fields (every
		// %.17g rendering) are parsed from a stack copy.
		v, err := strconv.ParseFloat(string(f[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("sparse: line %d: %v", line, err)
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("sparse: line %d: index (%d,%d) out of range for %dx%d", line, i, j, rows, cols)
		}
		if cap(coo.I)-len(coo.I) < 2 {
			// Double rather than let append creep up by a quarter at a time.
			coo.Reserve(min(2*cap(coo.I), declared))
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

// splitFields splits text around white space, as strings.Fields does, into
// dst and returns how many fields it stored; it stops once dst is full.
func splitFields(text []byte, dst [][]byte) int {
	n, i := 0, 0
	for n < len(dst) {
		for i < len(text) && asciiSpace[text[i]] {
			i++
		}
		if i == len(text) {
			break
		}
		start := i
		for i < len(text) && !asciiSpace[text[i]] {
			if text[i] >= utf8.RuneSelf {
				// Unicode white space is possible: let the library decide.
				return copy(dst, bytes.Fields(text))
			}
			i++
		}
		dst[n] = text[start:i]
		n++
	}
	return n
}

var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// atoi is strconv.Atoi on a byte field: plain runs of digits are converted
// in place, anything else (signs, overlong or malformed numbers) goes
// through strconv so the value and the error text are its own.
func atoi(f []byte) (int, error) {
	if len(f) == 0 || len(f) > 18 {
		return strconv.Atoi(string(f))
	}
	n := 0
	for _, c := range f {
		if c < '0' || c > '9' {
			return strconv.Atoi(string(f))
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}
