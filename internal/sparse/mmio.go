package sparse

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
	"unsafe"
)

// Matrix Market text codec. Supports the subset of the format the tooling
// needs: "matrix coordinate real {general|symmetric}" with 1-based indices
// and '%' comments. Symmetric files store only the lower triangle; reading
// mirrors the entries.

// WriteMatrixMarket writes m in coordinate/general form.
func WriteMatrixMarket(w io.Writer, m *CSR) error { return writeMatrixMarket(w, m, "general") }

// WriteMatrixMarketSymmetric writes the lower triangle of a symmetric m in
// coordinate/symmetric form.
func WriteMatrixMarketSymmetric(w io.Writer, m *CSR) error {
	return writeMatrixMarket(w, m.LowerTriangle(), "symmetric")
}

func writeMatrixMarket(w io.Writer, m *CSR, symmetry string) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real %s\n%d %d %d\n", symmetry, m.Rows, m.Cols, m.NNZ()); err != nil {
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

// MaxMatrixMarketDim is the largest row or column count ReadMatrixMarket
// accepts. The size line of a file is untrusted input and the CSR row
// pointer is allocated from it, so it is bounded before anything is
// allocated: 1<<24 rows (a 128 MiB row pointer) is four times the largest
// matrix of the paper's test set.
const MaxMatrixMarketDim = 1 << 24

// mmMinChunk is the least body of entry lines worth a goroutine of its own.
const mmMinChunk = 64 << 10

// ReadMatrixMarket parses a Matrix Market stream into a CSR matrix. Sizes
// that are negative, beyond MaxMatrixMarketDim, or that declare more entries
// than the matrix has positions are rejected before any allocation. The
// stream is read whole first, a read error coming back wrapped, and its
// entry lines are parsed in one chunk per core.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead) // one allocation, the last read's room included
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("sparse: reading Matrix Market stream: %w", err)
	}
	return parseMatrixMarket(buf.Bytes(), max(1, min(runtime.GOMAXPROCS(0), buf.Len()/mmMinChunk)))
}

// parseMatrixMarket parses a whole Matrix Market file, its entry lines in
// the given number of chunks, one goroutine each. Matrix and error are those
// of a reading line by line, whatever the chunk count.
func parseMatrixMarket(data []byte, chunks int) (*CSR, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("sparse: empty Matrix Market stream")
	}
	first, rest, _ := bytes.Cut(data, []byte{'\n'})
	first = bytes.TrimSuffix(first, []byte{'\r'})
	header := strings.Fields(strings.ToLower(string(first)))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("sparse: bad Matrix Market header %q", first)
	}
	if header[2] != "coordinate" || header[3] != "real" {
		return nil, fmt.Errorf("sparse: unsupported Matrix Market kind %q (only coordinate real)", first)
	}
	symmetric := false
	switch header[4] {
	case "general":
	case "symmetric":
		symmetric = true
	default:
		return nil, fmt.Errorf("sparse: unsupported Matrix Market symmetry %q", header[4])
	}

	rows, cols, nnz := -1, 0, 0
	line := 1
	for rows < 0 && len(rest) > 0 {
		var raw []byte
		raw, rest, _ = bytes.Cut(rest, []byte{'\n'})
		line++
		text, n, f, err := longLine(raw, line, "size")
		if err != nil {
			return nil, err
		}
		if text == nil {
			continue
		}
		if nnz, err = strconv.Atoi(string(f)); err != nil {
			return nil, fmt.Errorf("sparse: line %d: %v", line, err)
		}
		if rows, cols = n[0], n[1]; rows < 0 || cols < 0 || nnz < 0 {
			return nil, fmt.Errorf("sparse: line %d: negative size in %q", line, text)
		}
		if rows > MaxMatrixMarketDim || cols > MaxMatrixMarketDim {
			return nil, fmt.Errorf("sparse: line %d: size %dx%d exceeds the %d-row/column limit", line, rows, cols, MaxMatrixMarketDim)
		}
		if nnz > rows*cols { // no overflow: both factors are ≤ 2²⁴
			return nil, fmt.Errorf("sparse: line %d: %d entries declared for a %dx%d matrix", line, nnz, rows, cols)
		}
	}
	if rows < 0 {
		return nil, fmt.Errorf("sparse: missing Matrix Market size line")
	}

	// Cut the entry lines into chunks at newlines and parse them at once.
	parts := make([]mmChunk, chunks)
	var wg sync.WaitGroup
	wg.Add(chunks)
	for c, at := 0, 0; c < chunks; c++ {
		n := (len(rest) - at) / (chunks - c)
		if nl := bytes.IndexByte(rest[at+n:], '\n'); nl < 0 {
			n = len(rest) - at
		} else {
			n += nl + 1
		}
		ch := &parts[c]
		ch.before, ch.body, at = rest[:at], rest[at:at+n], at+n
		go func() { defer wg.Done(); ch.parse(line, rows, cols, symmetric) }()
	}
	wg.Wait()
	seen := 0
	for _, ch := range parts {
		if ch.err != nil { // the first line in error in the file
			return nil, ch.err
		}
		seen += len(ch.e)
	}
	if seen != nnz {
		return nil, fmt.Errorf("sparse: Matrix Market declared %d entries, found %d", nnz, seen)
	}
	// The entries reach the assembler in file order, a mirror right after its
	// entry, so duplicates sum in the order a reading line by line adds them.
	as := NewAssembler(rows, cols)
	for _, ch := range parts {
		for _, e := range ch.e {
			as.Count(int(e.i), 1)
			if symmetric && e.i != e.j {
				as.Count(int(e.j), 1)
			}
		}
	}
	as.Begin()
	for _, ch := range parts {
		for _, e := range ch.e {
			as.Put(int(e.i), int(e.j), e.v)
			if symmetric && e.i != e.j {
				as.Put(int(e.j), int(e.i), e.v)
			}
		}
	}
	return as.Finish(), nil
}

// mmChunk is a run of whole entry lines, the entry lines before it, and
// what parsing it found: the entries, 0-based, up to its first line in error.
type mmChunk struct {
	before, body []byte
	e            []mmEntry
	err          error
}

type mmEntry struct {
	i, j int32 // below MaxMatrixMarketDim
	v    float64
}

// parse reads the chunk's lines, each in one fused scan where it can and by
// parseEntry where it cannot, and stops at the first line in error; the
// entry lines start after the file's line sized.
func (ch *mmChunk) parse(sized, rows, cols int, symmetric bool) {
	b := ch.body
	lim := [2]int{rows, cols}
	if symmetric { // an entry and its mirror must both fit
		lim = [2]int{min(rows, cols), min(rows, cols)}
	}
	for p, line := 0, 1; p < len(b); line++ {
		if len(ch.e) == cap(ch.e) {
			// Room for the bytes left at the entries per byte so far, but never
			// for more than one per six ("1 1 1\n"): filler buys no entries.
			left := len(b) - p
			ch.e = slices.Grow(ch.e, min(int(float64(len(ch.e))*float64(left)/float64(p+1)*1.125)+16, left/6+1))
		}
		n, v, next, ok := scanEntry(b, p, lim)
		if !ok {
			raw, _, _ := bytes.Cut(b[p:], []byte{'\n'})
			next = p + len(raw) + 1
			var err error
			if n, v, ok, err = parseEntry(raw, line, rows, cols, symmetric); err != nil {
				line += sized + bytes.Count(ch.before, []byte{'\n'}) // the line in the file
				_, _, _, ch.err = parseEntry(raw, line, rows, cols, symmetric)
				return
			}
		}
		if ok {
			ch.e = append(ch.e, mmEntry{int32(n[0] - 1), int32(n[1] - 1), v})
		}
		p = next
	}
}

// scanEntry reads the entry line at b[p:] in one pass: two indices of 1 to
// 18 ASCII digits worth 1 … lim and a value ParseFloat takes (only ASCII),
// with ASCII white space between and around them. ok is false for every line
// it does not take in full; next is the offset past the line's newline.
func scanEntry(b []byte, p int, lim [2]int) (n [2]int, v float64, next int, ok bool) {
	for k := range n {
		for p < len(b) && asciiSpace[b[p]] {
			p++
		}
		s := p
		for p < len(b) && b[p]-'0' <= 9 {
			n[k] = n[k]*10 + int(b[p]-'0')
			p++
		}
		if p == s || p-s > 18 || n[k] < 1 || n[k] > lim[k] || p == len(b) || !asciiSpace[b[p]] {
			return n, 0, 0, false
		}
	}
	for p < len(b) && asciiSpace[b[p]] {
		p++
	}
	s := p
	for p < len(b) && b[p] != '\n' && !asciiSpace[b[p]] {
		p++ // a byte beyond ASCII is left to ParseFloat to refuse
	}
	e := p
	for p < len(b) && asciiSpace[b[p]] {
		p++
	}
	if v, ok = scanValue(b[s:e]); !ok || p < len(b) && b[p] != '\n' {
		return n, 0, 0, false
	}
	return n, v, p + 1, true
}

// scanValue converts a value field: an optionally signed run of at most 15
// digits exactly by integer arithmetic, anything else by ParseFloat. It
// reports false where ParseFloat fails.
func scanValue(f []byte) (float64, bool) {
	d := f
	if len(d) > 1 && (d[0] == '-' || d[0] == '+') {
		d = d[1:]
	}
	n, k := int64(0), 0
	for ; k < len(d) && d[k]-'0' <= 9; k++ { // wraps past 18 digits, unused then
		n = n*10 + int64(d[k]-'0')
	}
	if k == len(d) && k > 0 && k <= 15 {
		if f[0] == '-' {
			return -float64(n), true // -0 included
		}
		return float64(n), true
	}
	// ParseFloat keeps no reference to its argument; its errors copy it.
	v, err := strconv.ParseFloat(unsafe.String(unsafe.SliceData(f), len(f)), 64)
	return v, err == nil
}

// parseEntry parses one entry line the long way (longLine), its value by
// ParseFloat. ok is false, and err nil, for blank and comment lines.
func parseEntry(raw []byte, line, rows, cols int, symmetric bool) (n [2]int, v float64, ok bool, err error) {
	text, n, f, err := longLine(raw, line, "entry")
	if text == nil {
		return n, 0, false, err
	}
	if v, err = strconv.ParseFloat(string(f), 64); err != nil {
		return n, 0, false, fmt.Errorf("sparse: line %d: %v", line, err)
	}
	if i, j := n[0], n[1]; i < 1 || i > rows || j < 1 || j > cols {
		return n, 0, false, fmt.Errorf("sparse: line %d: index (%d,%d) out of range for %dx%d", line, i, j, rows, cols)
	} else if symmetric && (i > cols || j > rows) {
		return n, 0, false, fmt.Errorf("sparse: line %d: index (%d,%d) has no mirror in a symmetric %dx%d matrix", line, i, j, rows, cols)
	}
	return n, v, true, nil
}

// longLine reads a size or entry line the way the reader always has: white
// space trimmed and split as strings.Fields does, the first two of its three
// fields converted by Atoi. text is nil for a blank or comment line, and
// for a line in error.
func longLine(raw []byte, line int, kind string) (text []byte, n [2]int, last []byte, err error) {
	text = bytes.TrimSpace(raw)
	if len(text) == 0 || text[0] == '%' {
		return nil, n, nil, nil
	}
	var f [4][]byte // one spare to detect a fourth field
	if splitFields(text, f[:]) != 3 {
		return nil, n, nil, fmt.Errorf("sparse: line %d: bad %s line %q", line, kind, text)
	}
	for k := range n {
		if n[k], err = strconv.Atoi(string(f[k])); err != nil {
			return nil, n, nil, fmt.Errorf("sparse: line %d: %v", line, err)
		}
	}
	return text, n, f[2], nil
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

// asciiSpace is ASCII white space but the newline, which ends a line.
var asciiSpace = [256]bool{'\t': true, '\v': true, '\f': true, '\r': true, ' ': true}
