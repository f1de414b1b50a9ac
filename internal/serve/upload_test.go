package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fsaicomm"
)

// TestUploadContentLengthIsAHint: POST /matrix reads its body into a
// buffer the size of its Content-Length, and the figure decides nothing
// else. Over the wire a body shorter than announced is refused as the
// truncated stream it is, one longer is read up to the announced length
// (parsed when that much is a whole file, refused when it is not), a body
// over the limit is refused as too large and one announced over it but
// shorter as truncated, and a chunked body with no length parses. Handed to the handler directly, with a
// Content-Length shorter or longer than the body it came with, the body is
// read whole and answered as one with no length.
func TestUploadContentLengthIsAHint(t *testing.T) {
	var buf bytes.Buffer
	if err := fsaicomm.WriteMatrixMarket(&buf, fsaicomm.GeneratePoisson2D(6, 6)); err != nil {
		t.Fatal(err)
	}
	mm := buf.String()
	limit := len(mm) + 64
	s, ts := testServer(t, Config{MaxBodyBytes: int64(limit)})
	// padded is a whole file one byte over the limit.
	padded := mm + "%" + strings.Repeat(" ", limit-len(mm)-1) + "\n"
	// raw posts body with the given Content-Length header (none: chunked),
	// then closes its side, and returns status and body of the answer.
	raw := func(length, body string) (int, string) {
		conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		head := "POST /matrix HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
		if length == "" {
			head += "Transfer-Encoding: chunked\r\n\r\n"
			body = fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(body), body)
		} else {
			head += "Content-Length: " + length + "\r\n\r\n"
		}
		if _, err := io.WriteString(conn, head+body); err != nil {
			t.Fatal(err)
		}
		conn.(*net.TCPConn).CloseWrite()
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, strings.TrimSpace(string(out))
	}
	cut := strings.LastIndex(strings.TrimSuffix(mm, "\n"), "\n") + 3 // inside the last entry line
	for _, tc := range []struct {
		name, length, body string
		code               int
		answer             string // a prefix of the answer
	}{
		{"exact", fmt.Sprint(len(mm)), mm, http.StatusOK, `{"matrix":`},
		{"chunked", "", mm, http.StatusOK, `{"matrix":`},
		{"shorter than announced", fmt.Sprint(len(mm) + 100), mm, http.StatusBadRequest,
			`{"error":"parsing MatrixMarket body: sparse: reading Matrix Market stream: unexpected EOF"}`},
		{"longer, whole file announced", fmt.Sprint(len(mm)), mm + "% trailing bytes\n", http.StatusOK, `{"matrix":`},
		{"longer, a cut file announced", fmt.Sprint(cut), mm, http.StatusBadRequest, `{"error":"parsing MatrixMarket body: `},
		{"over the limit", fmt.Sprint(len(padded)), padded, http.StatusRequestEntityTooLarge,
			fmt.Sprintf(`{"error":"request body exceeds the %d-byte limit"}`, limit)},
		{"announced over the limit, shorter", fmt.Sprint(limit + 1), mm, http.StatusBadRequest,
			`{"error":"parsing MatrixMarket body: sparse: reading Matrix Market stream: unexpected EOF"}`},
	} {
		code, answer := raw(tc.length, tc.body)
		if code != tc.code || !strings.HasPrefix(answer, tc.answer) {
			t.Errorf("%s: %d %s, want %d %s", tc.name, code, answer, tc.code, tc.answer)
		}
	}

	direct := func(length int64) (int, string) {
		r := httptest.NewRequest(http.MethodPost, "/matrix", strings.NewReader(mm))
		r.ContentLength = length
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		return w.Code, w.Body.String()
	}
	wantCode, want := direct(-1)
	if wantCode != http.StatusOK {
		t.Fatalf("no length: %d %s", wantCode, want)
	}
	for _, length := range []int64{1, int64(len(mm)) / 2, int64(len(mm)) + 1, int64(limit), int64(limit) + 1} {
		if code, got := direct(length); code != wantCode || got != want {
			t.Errorf("Content-Length %d for %d bytes: %d %s, want %d %s", length, len(mm), code, got, wantCode, want)
		}
	}
}
