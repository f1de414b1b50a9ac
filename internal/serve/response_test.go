package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fsaicomm"
	"fsaicomm/internal/testsets"
)

// countRHS counts calls of the seeded right-hand-side generator until the
// test ends.
func countRHS(t *testing.T) *atomic.Int64 {
	n := new(atomic.Int64)
	orig := generateRHS
	generateRHS = func(rows int, seed int64, maxNorm float64) []float64 {
		n.Add(1)
		return orig(rows, seed, maxNorm)
	}
	t.Cleanup(func() { generateRHS = orig })
	return n
}

// Refused work costs nothing: with every slot taken and no queue place left,
// /solve answers 429 without having drawn the right-hand side — on the scalar
// path and on the coalescing path, where the refused request would have
// opened a batch. Once a slot is free the same request draws exactly one.
func TestRefusedSolveGeneratesNoRHS(t *testing.T) {
	for _, cfg := range []Config{
		{MaxInFlight: 2, MaxQueue: -1},
		{MaxInFlight: 2, MaxQueue: -1, BatchMax: 2, BatchWindow: 5 * time.Millisecond},
	} {
		s, ts := testServer(t, cfg)
		calls := countRHS(t)
		mr := uploadGen(t, ts.URL, "Dubcova2-sim")
		for i := 0; i < cap(s.sem); i++ {
			s.sem <- struct{}{}
		}
		req := solveRequest{Matrix: mr.Matrix, Ranks: 2, RHSSeed: 3}
		resp, body := postJSON(t, ts.URL+"/solve", req)
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("batching=%v: full server answered %d (Retry-After %q): %s",
				cfg.BatchMax > 0, resp.StatusCode, resp.Header.Get("Retry-After"), body)
		}
		if n := calls.Load(); n != 0 {
			t.Fatalf("batching=%v: a refused solve drew %d right-hand sides", cfg.BatchMax > 0, n)
		}
		if m := getMetrics(t, ts.URL); m.Jobs.Rejected != 1 || m.Jobs.Accepted != 0 {
			t.Fatalf("batching=%v: rejected %d accepted %d, want 1 and 0", cfg.BatchMax > 0, m.Jobs.Rejected, m.Jobs.Accepted)
		}
		for i := 0; i < cap(s.sem); i++ {
			<-s.sem
		}
		if resp, body = postJSON(t, ts.URL+"/solve", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("batching=%v: freed server answered %d: %s", cfg.BatchMax > 0, resp.StatusCode, body)
		}
		if n := calls.Load(); n != 1 {
			t.Fatalf("batching=%v: an admitted solve drew %d right-hand sides, want 1", cfg.BatchMax > 0, n)
		}
	}
}

// A /solve response is compact JSON of declared length whose x decodes to
// the very bits Prepared.Solve returns for the right-hand side
// fsaicomm.GenerateRHS draws — the server scales its draw by the max-norm it
// stored at upload instead of rescanning the matrix. The hash pins those
// bits to what the server answered before it did so.
func TestSolveResponseCompactAndExact(t *testing.T) {
	_, ts := testServer(t, Config{})
	mr := uploadGen(t, ts.URL, "Dubcova2-sim")
	b, _ := json.Marshal(solveRequest{Matrix: mr.Matrix, Method: "fsaie-comm", Ranks: 3, RHSSeed: 7, Filter: 0.01})
	resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body.String())
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(body.Len()) {
		t.Fatalf("Content-Length %q for a body of %d bytes", got, body.Len())
	}
	if strings.ContainsAny(body.String(), "\n\t") || strings.Contains(body.String(), ": ") {
		t.Fatalf("response is not compact: %.120q…", body.String())
	}
	var sr solveResponse
	if err := json.Unmarshal(body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}

	spec, err := testsets.ByName("Dubcova2-sim")
	if err != nil {
		t.Fatal(err)
	}
	a := spec.Generate()
	p, err := fsaicomm.Prepare(a, fsaicomm.Options{Method: fsaicomm.FSAIEComm, Ranks: 3, Filter: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Solve(context.Background(), fsaicomm.GenerateRHS(a, 7), fsaicomm.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.X) != len(want.X) || sr.Iterations != want.Iterations || sr.ModeledSec != want.ModeledSolveTime {
		t.Fatalf("response: %d values, %d iterations, modeled %v s; library: %d, %d, %v",
			len(sr.X), sr.Iterations, sr.ModeledSec, len(want.X), want.Iterations, want.ModeledSolveTime)
	}
	h := sha256.New()
	var w [8]byte
	for i, v := range sr.X {
		if math.Float64bits(v) != math.Float64bits(want.X[i]) {
			t.Fatalf("x[%d] decodes to %v, Prepared.Solve returned %v", i, v, want.X[i])
		}
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		h.Write(w[:])
	}
	const pinned = "739eca99bcdb49e6a4871860a889a89ae10bcdaa57c407000a9a1fe9c2cf8973"
	if got := hex.EncodeToString(h.Sum(nil)); got != pinned {
		t.Fatalf("x hashes to %s, pinned %s", got, pinned)
	}
}

// FuzzSolveRequest feeds arbitrary bytes to the /solve decoder: it must not
// panic, and must end in a 4xx or in options both facade validators accept —
// nothing the library would reject may get past the boundary.
func FuzzSolveRequest(f *testing.F) {
	for _, seed := range []string{
		`{"matrix":"abc"}`,
		`{"matrix":"abc","ranks":3,"cg":"fused","filter":0.01,"rhs_seed":7}`,
		`{"matrix":"abc","solver":"gmres","restart":20,"spai_steps":2}`,
		`{"matrix":"abc","precision":"fp32","nodes":2,"ranks_per_node":2,"no_node_aggregation":true}`,
		`{"matrix":"abc","rhs":[1,2.5,-3e-7],"tol":1e-9,"max_iter":50,"arch":"a64fx","transport":"tcp"}`,
		`{"ranks":5000}`, `{"ranks":-1}`, `{"tol":-1}`, `{"tol":1e999}`, `{"cg":"pipelined","solver":"gmres"}`,
		`{"method":"spai"}`, `{"arch":"vax"}`, `{"unknown":1}`, `{"rhs":[1,`, `[]`, `null`, ``, `{"restart":-4}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, opt, so, err := decodeSolve(bytes.NewReader(data))
		if err != nil {
			var he *httpError
			if !errors.As(err, &he) || he.code < 400 || he.code > 499 {
				t.Fatalf("%q: rejected with %v, want a 4xx", data, err)
			}
			return
		}
		if q == nil {
			t.Fatalf("%q: accepted without a request", data)
		}
		if err := opt.Validate(); err != nil {
			t.Fatalf("%q: accepted, but Options.Validate says %v", data, err)
		}
		if err := so.Validate(); err != nil {
			t.Fatalf("%q: accepted, but SolveOptions.Validate says %v", data, err)
		}
	})
}
