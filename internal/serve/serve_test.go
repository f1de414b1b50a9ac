package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fsaicomm"
	"fsaicomm/internal/mprun"
	"fsaicomm/internal/testsets"
)

// TestMain lets this test binary self-host the rank worker processes that
// solves with "transport": "tcp" spawn via re-execution.
func TestMain(m *testing.M) {
	mprun.MaybeWorker()
	os.Exit(m.Run())
}

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		// Ends the rank workers that tcp solves have left on cached systems.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func uploadGen(t *testing.T, base, name string) matrixResponse {
	t.Helper()
	resp, body := postJSON(t, base+"/matrix?gen="+name, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload %s: %d %s", name, resp.StatusCode, body)
	}
	var mr matrixResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	return mr
}

func getMetrics(t *testing.T, base string) metricsSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMatrixUploadBody(t *testing.T) {
	_, ts := testServer(t, Config{})
	a := fsaicomm.GeneratePoisson2D(12, 12)
	var buf bytes.Buffer
	if err := fsaicomm.WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/matrix", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	var mr matrixResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Rows != a.Rows || mr.NNZ != a.NNZ() || mr.Cached {
		t.Fatalf("response %+v", mr)
	}
	if mr.Matrix != a.Fingerprint() {
		t.Fatalf("fingerprint %s, want %s", mr.Matrix, a.Fingerprint())
	}
	// Idempotent re-upload: same handle, flagged as already cached.
	var buf2 bytes.Buffer
	if err := fsaicomm.WriteMatrixMarket(&buf2, a); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(ts.URL+"/matrix", "text/plain", &buf2)
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	var mr2 matrixResponse
	if err := json.Unmarshal(body2, &mr2); err != nil {
		t.Fatal(err)
	}
	if mr2.Matrix != mr.Matrix || !mr2.Cached {
		t.Fatalf("re-upload %+v", mr2)
	}
}

// TestBodyOverLimitIs413: on a server with a 1 KiB body limit, a matrix
// upload or a solve request over it is answered 413 naming the limit, and
// one under it keeps its status — 200 when it is good, 400 when it is not.
func TestBodyOverLimitIs413(t *testing.T) {
	_, ts := testServer(t, Config{MaxBodyBytes: 1 << 10})
	mm := func(a *fsaicomm.Matrix) string {
		var buf bytes.Buffer
		if err := fsaicomm.WriteMatrixMarket(&buf, a); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	small := fsaicomm.GeneratePoisson2D(3, 3)
	post := func(path, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(out)
	}
	fp := small.Fingerprint()
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"small matrix", "/matrix", mm(small), http.StatusOK},
		{"large matrix", "/matrix", mm(fsaicomm.GeneratePoisson2D(12, 12)), http.StatusRequestEntityTooLarge},
		{"small bad matrix", "/matrix", "%%MatrixMarket matrix coordinate real general\n2 2 1\n", http.StatusBadRequest},
		{"small solve", "/solve", fmt.Sprintf(`{"matrix":%q,"ranks":1}`, fp), http.StatusOK},
		{"large solve", "/solve", fmt.Sprintf(`{"matrix":%q,"ranks":1,"rhs":[%s1]}`, fp, strings.Repeat("1.0000000000000002,", 60)), http.StatusRequestEntityTooLarge},
		{"small bad solve", "/solve", `{"matrix":`, http.StatusBadRequest},
	} {
		code, body := post(tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s (%d bytes): %d %s, want %d", tc.name, len(tc.body), code, body, tc.want)
		}
		if tc.want == http.StatusRequestEntityTooLarge && !strings.Contains(body, "1024-byte limit") {
			t.Errorf("%s: %s does not name the limit", tc.name, body)
		}
	}
}

func TestSolveAndCacheHit(t *testing.T) {
	_, ts := testServer(t, Config{})
	mr := uploadGen(t, ts.URL, "ecology2-sim")

	req := solveRequest{Matrix: mr.Matrix, Ranks: 3, CG: "fused", Filter: 0.01}
	resp, body := postJSON(t, ts.URL+"/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	var first solveResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if !first.Converged || first.CacheHit || first.SetupMs <= 0 {
		t.Fatalf("first solve: converged=%v hit=%v setup=%gms", first.Converged, first.CacheHit, first.SetupMs)
	}
	if first.Ranks != 3 || first.CommBytes <= 0 || first.Collectives <= 0 {
		t.Fatalf("first solve stats: %+v", first)
	}

	resp, body = postJSON(t, ts.URL+"/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-solve: %d %s", resp.StatusCode, body)
	}
	var second solveResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.SetupMs != 0 {
		t.Fatalf("re-solve not served from cache: hit=%v setup=%gms", second.CacheHit, second.SetupMs)
	}
	if second.Iterations != first.Iterations {
		t.Fatalf("iterations changed: %d -> %d", first.Iterations, second.Iterations)
	}
	// Bit-identical solutions: JSON float64 round-trips are exact.
	if len(first.X) != len(second.X) {
		t.Fatal("solution length changed")
	}
	for i := range first.X {
		if first.X[i] != second.X[i] {
			t.Fatalf("x[%d] differs between cached solves: %g != %g", i, first.X[i], second.X[i])
		}
	}

	m := getMetrics(t, ts.URL)
	if m.Cache.Prepared.Misses != 1 || m.Cache.Prepared.Hits != 1 {
		t.Fatalf("prepared cache hits=%d misses=%d", m.Cache.Prepared.Hits, m.Cache.Prepared.Misses)
	}
	if m.Jobs.Completed != 2 || m.LatencyMs.Count != 2 {
		t.Fatalf("jobs completed=%d latency count=%d", m.Jobs.Completed, m.LatencyMs.Count)
	}
	if m.Solve.CollectiveCalls <= 0 || m.Solve.CommBytes <= 0 {
		t.Fatalf("aggregate comm totals missing: %+v", m.Solve)
	}
	// Every collective is at least one blocking wait on each rank that entered.
	if waits := m.Solve.WaitsReady + m.Solve.WaitsPolled + m.Solve.WaitsParked; waits < m.Solve.CollectiveCalls {
		t.Fatalf("%d blocking waits counted for %d collective calls: %+v", waits, m.Solve.CollectiveCalls, m.Solve)
	}
}

// A request may pick its rank backend per solve: "transport": "tcp" routes
// the same prepared system through one OS process per rank and must return
// the bit-identical solution a sim solve does — served from the same cache
// entry, because the factors are transport-independent.
func TestSolveTransportTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	_, ts := testServer(t, Config{})
	mr := uploadGen(t, ts.URL, "Dubcova2-sim")

	req := solveRequest{Matrix: mr.Matrix, Ranks: 4, Filter: 0.01}
	resp, body := postJSON(t, ts.URL+"/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sim solve: %d %s", resp.StatusCode, body)
	}
	var sim solveResponse
	if err := json.Unmarshal(body, &sim); err != nil {
		t.Fatal(err)
	}

	req.Transport = "tcp"
	resp, body = postJSON(t, ts.URL+"/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tcp solve: %d %s", resp.StatusCode, body)
	}
	var tcp solveResponse
	if err := json.Unmarshal(body, &tcp); err != nil {
		t.Fatal(err)
	}
	if !tcp.CacheHit {
		t.Fatal("tcp solve missed the prepared cache: transport leaked into the setup key")
	}
	if tcp.Iterations != sim.Iterations || tcp.Converged != sim.Converged {
		t.Fatalf("stats diverge: tcp (%d, %v) vs sim (%d, %v)",
			tcp.Iterations, tcp.Converged, sim.Iterations, sim.Converged)
	}
	if tcp.CommBytes != sim.CommBytes || tcp.Collectives != sim.Collectives {
		t.Fatalf("meters diverge: tcp (%d, %d) vs sim (%d, %d)",
			tcp.CommBytes, tcp.Collectives, sim.CommBytes, sim.Collectives)
	}
	for i := range sim.X {
		if tcp.X[i] != sim.X[i] {
			t.Fatalf("x[%d] diverges: tcp %v vs sim %v", i, tcp.X[i], sim.X[i])
		}
	}

	resp, body = postJSON(t, ts.URL+"/solve", solveRequest{Matrix: mr.Matrix, Ranks: 4, Filter: 0.01, Transport: "carrier-pigeon"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown transport: %d %s", resp.StatusCode, body)
	}
}

// TestMetricsCountPointToPointMessages: /metrics' inter_node_messages_total
// (the key benchmark/ reads) is the sum of CommMessages over the solves the
// server ran, on both transports: each request is replayed through the
// library on the same matrix, options and right-hand side.
func TestMetricsCountPointToPointMessages(t *testing.T) {
	_, ts := testServer(t, Config{})
	const gen = "Dubcova2-sim"
	mr := uploadGen(t, ts.URL, gen)
	spec, err := testsets.ByName(gen)
	if err != nil {
		t.Fatal(err)
	}
	a := spec.Generate()
	reqs := []solveRequest{
		{Matrix: mr.Matrix, Ranks: 2},
		{Matrix: mr.Matrix, Ranks: 3, CG: "fused", RHSSeed: 2},
		{Matrix: mr.Matrix, Ranks: 3, CG: "pipelined", RHSSeed: 3},
	}
	if !testing.Short() {
		reqs = append(reqs,
			solveRequest{Matrix: mr.Matrix, Ranks: 2, Transport: "tcp"},
			solveRequest{Matrix: mr.Matrix, Ranks: 3, CG: "fused", RHSSeed: 4, Transport: "tcp"})
	}
	var want int64
	for _, q := range reqs {
		if code, _, raw := solveOn(t, ts.URL, q); code != http.StatusOK {
			t.Fatalf("%+v: %d %s", q, code, raw)
		}
		opt, so, err := q.options()
		if err != nil {
			t.Fatal(err)
		}
		p, err := fsaicomm.Prepare(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		seed := max(q.RHSSeed, 1)
		res, err := p.Solve(context.Background(), fsaicomm.GenerateRHS(a, seed), so)
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.CommMessages == 0 {
			t.Fatalf("%+v: a distributed solve sent no messages", q)
		}
		want += res.CommMessages
	}
	if got := getMetrics(t, ts.URL).Solve.CommMessages; got != want {
		t.Fatalf("inter_node_messages_total %d, the solves sent %d", got, want)
	}
}

// The concurrency satellite: N clients solving the same cached system in
// parallel get bit-identical solutions, and the cache counts exactly one
// miss (the priming build) plus one hit per concurrent request.
func TestSolveConcurrentCached(t *testing.T) {
	_, ts := testServer(t, Config{MaxInFlight: 4, MaxQueue: 64})
	mr := uploadGen(t, ts.URL, "Dubcova2-sim")
	req := solveRequest{Matrix: mr.Matrix, Ranks: 3, CG: "pipelined", Filter: 0.01}

	resp, body := postJSON(t, ts.URL+"/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("priming solve: %d %s", resp.StatusCode, body)
	}
	var ref solveResponse
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatal(err)
	}

	const n = 8
	results := make([]solveResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(b))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				out, _ := io.ReadAll(resp.Body)
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, out)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&results[i])
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !results[i].CacheHit || results[i].SetupMs != 0 {
			t.Fatalf("client %d missed the cache: %+v", i, results[i])
		}
		if results[i].Iterations != ref.Iterations {
			t.Fatalf("client %d: %d iterations, reference %d", i, results[i].Iterations, ref.Iterations)
		}
		for j := range ref.X {
			if results[i].X[j] != ref.X[j] {
				t.Fatalf("client %d: x[%d] differs", i, j)
			}
		}
	}
	m := getMetrics(t, ts.URL)
	if m.Cache.Prepared.Misses != 1 {
		t.Fatalf("prepared misses = %d, want exactly 1", m.Cache.Prepared.Misses)
	}
	if m.Cache.Prepared.Hits != n+0 {
		t.Fatalf("prepared hits = %d, want %d", m.Cache.Prepared.Hits, n)
	}
	if m.Jobs.Completed != n+1 {
		t.Fatalf("jobs completed = %d, want %d", m.Jobs.Completed, n+1)
	}
}

func TestSolveValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	mr := uploadGen(t, ts.URL, "Dubcova2-sim")
	cases := []struct {
		name string
		req  any
		code int
		want string
	}{
		{"negative tol", solveRequest{Matrix: mr.Matrix, Tol: -1}, 400, "Tol"},
		{"negative max_iter", solveRequest{Matrix: mr.Matrix, MaxIter: -1}, 400, "MaxIter"},
		{"bad method", solveRequest{Matrix: mr.Matrix, Method: "ilu"}, 400, "method"},
		{"bad cg", solveRequest{Matrix: mr.Matrix, CG: "gmres"}, 400, "variant"},
		{"bad partitioner", solveRequest{Matrix: mr.Matrix, Partitioner: "metis"}, 400, "partitioner"},
		// A rank count is a resource request (ranks² channels, or one process
		// each): 5000 must be refused, not attempted.
		{"too many ranks", map[string]any{"matrix": mr.Matrix, "ranks": 5000}, 400, "Ranks"},
		{"too many tcp ranks", solveRequest{Matrix: mr.Matrix, Ranks: 5000, Transport: "tcp"}, 400, "Ranks"},
		{"missing matrix", solveRequest{}, 400, "matrix"},
		{"unknown matrix", solveRequest{Matrix: strings.Repeat("0", 32)}, 404, "unknown matrix"},
		{"wrong rhs length", solveRequest{Matrix: mr.Matrix, RHS: []float64{1, 2, 3}}, 400, "rhs length"},
		{"unknown field", map[string]any{"matrix": mr.Matrix, "tolerance": 1e-8}, 400, "unknown field"},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/solve", tc.req)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.code, body)
			continue
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: body %q does not mention %q", tc.name, body, tc.want)
		}
	}
	if resp, body := postJSON(t, ts.URL+"/matrix?gen=notreal", nil); resp.StatusCode != 400 {
		t.Errorf("bad catalog name: %d %s", resp.StatusCode, body)
	}
	m := getMetrics(t, ts.URL)
	if m.Jobs.Completed != 0 {
		t.Fatalf("validation requests completed jobs: %d", m.Jobs.Completed)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after the refused requests: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz after the refused requests: %d", resp.StatusCode)
	}
}

// TestIllegalCellsRefusedBeforeAdmission: an option combination the library
// refuses is a 400 before the job is admitted — no job accepted or failed,
// no prepared-cache lookup, no entry — whether the request says the rank
// count or leaves it to AutoRanks.
func TestIllegalCellsRefusedBeforeAdmission(t *testing.T) {
	_, ts := testServer(t, Config{})
	mr := uploadGen(t, ts.URL, "Dubcova2-sim")
	if code, _, raw := solveOn(t, ts.URL, solveRequest{Matrix: mr.Matrix, Ranks: 2}); code != http.StatusOK {
		t.Fatalf("legal solve: %d %s", code, raw)
	}
	before := getMetrics(t, ts.URL)
	for _, q := range []solveRequest{
		{Matrix: mr.Matrix, LineBytes: 12},
		{Matrix: mr.Matrix, Ranks: 2, Method: "spai"},
		{Matrix: mr.Matrix, Method: "spai"}, // AutoRanks: 2
		{Matrix: mr.Matrix, Ranks: 4, Solver: "gmres", CG: "fused"},
	} {
		if code, _, raw := solveOn(t, ts.URL, q); code != http.StatusBadRequest {
			t.Errorf("%+v: %d %s, want 400", q, code, raw)
		}
	}
	after := getMetrics(t, ts.URL)
	if after.Jobs.Accepted != before.Jobs.Accepted || after.Jobs.Failed != before.Jobs.Failed ||
		after.Cache.Prepared.Misses != before.Cache.Prepared.Misses || after.Cache.Prepared.Entries != before.Cache.Prepared.Entries {
		t.Errorf("refused requests moved the meters: jobs accepted %d → %d, failed %d → %d; prepared misses %d → %d, entries %d → %d",
			before.Jobs.Accepted, after.Jobs.Accepted, before.Jobs.Failed, after.Jobs.Failed,
			before.Cache.Prepared.Misses, after.Cache.Prepared.Misses, before.Cache.Prepared.Entries, after.Cache.Prepared.Entries)
	}
}

// TestNodeFieldsRefusedBeforeAdmission: the world is flat, so a /solve body
// that still asks for a node grouping — nodes, ranks_per_node or
// no_node_aggregation — is a 400 that names the field, before admission.
func TestNodeFieldsRefusedBeforeAdmission(t *testing.T) {
	refusedBeforeAdmission(t, map[string]any{"nodes": 2, "ranks_per_node": 2, "no_node_aggregation": true})
}

// TestResidualReplaceEveryRefusedBeforeAdmission: the pipelined loop's
// residual replacement is no per-solve option, so a /solve body that sets
// residual_replace_every is a 400 that names the field, before admission.
func TestResidualReplaceEveryRefusedBeforeAdmission(t *testing.T) {
	refusedBeforeAdmission(t, map[string]any{"residual_replace_every": 10})
}

// refusedBeforeAdmission posts, for each field, a 4-rank solve that carries
// it with its value and wants a 400 that names the field: no job accepted
// or rejected, and the one slot stays free for the next solve.
func refusedBeforeAdmission(t *testing.T, fields map[string]any) {
	t.Helper()
	_, ts := testServer(t, Config{MaxInFlight: 1, MaxQueue: -1})
	mr := uploadGen(t, ts.URL, "Dubcova2-sim")
	before := getMetrics(t, ts.URL)
	for field, v := range fields {
		resp, raw := postJSON(t, ts.URL+"/solve", map[string]any{"matrix": mr.Matrix, "ranks": 4, field: v})
		var e struct{ Error string }
		json.Unmarshal(raw, &e)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `"`+field+`"`) {
			t.Errorf("%s: %d %s, want a 400 that names the field", field, resp.StatusCode, raw)
		}
	}
	after := getMetrics(t, ts.URL)
	if after.Jobs.Accepted != before.Jobs.Accepted || after.Jobs.Rejected != before.Jobs.Rejected ||
		after.Jobs.InFlight != 0 || after.Jobs.Queued != 0 {
		t.Errorf("refused requests moved the job meters: accepted %d → %d, rejected %d → %d, in flight %d, queued %d",
			before.Jobs.Accepted, after.Jobs.Accepted, before.Jobs.Rejected, after.Jobs.Rejected, after.Jobs.InFlight, after.Jobs.Queued)
	}
	if code, _, raw := solveOn(t, ts.URL, solveRequest{Matrix: mr.Matrix, Ranks: 4}); code != http.StatusOK {
		t.Fatalf("legal solve after the refusals: %d %s", code, raw)
	}
}

// TestRestartZeroOnCachedSystem: restart 0 selects 30 on a cached SPAI
// system too, whatever restart the request that set it up asked for.
func TestRestartZeroOnCachedSystem(t *testing.T) {
	_, ts := testServer(t, Config{})
	_, fresh := testServer(t, Config{})
	mr := uploadGen(t, ts.URL, "convdiff-sim")
	uploadGen(t, fresh.URL, "convdiff-sim")
	q := solveRequest{Matrix: mr.Matrix, Solver: "gmres", Ranks: 2}
	five := q
	five.Restart = 5
	if code, _, raw := solveOn(t, ts.URL, five); code != http.StatusOK {
		t.Fatalf("restart 5: %d %s", code, raw)
	}
	_, got, _ := solveOn(t, ts.URL, q)
	_, want, _ := solveOn(t, fresh.URL, q)
	if !got.CacheHit || got.Iterations != want.Iterations || !sameX(got.X, want.X) {
		t.Fatalf("restart 0 after restart 5: %d iterations (cache hit %v), on a fresh server %d", got.Iterations, got.CacheHit, want.Iterations)
	}
}

// Overload: with one slot and no queue, a second solve arriving while the
// first runs is refused with 429 and counted as rejected.
func TestSolveOverload(t *testing.T) {
	_, ts := testServer(t, Config{MaxInFlight: 1, MaxQueue: -1, JobTimeout: time.Minute})
	// The large ecology2 instance keeps the unreachable-tolerance job busy
	// far longer than the test needs the slot occupied (a small matrix
	// reaches CG breakdown before the cancellation below lands).
	mr := uploadGen(t, ts.URL, "ecology2-sim")

	// A long job: unreachable tolerance with a big iteration budget.
	long := solveRequest{Matrix: mr.Matrix, Ranks: 2, Tol: 1e-300, MaxIter: 2_000_000}
	b, _ := json.Marshal(long)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reqLong, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/solve", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	longDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(reqLong)
		if err == nil {
			resp.Body.Close()
		}
		longDone <- err
	}()

	// Wait until the long job actually occupies the slot.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := getMetrics(t, ts.URL); m.Jobs.InFlight >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("long job never started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	quick := solveRequest{Matrix: mr.Matrix, Ranks: 2}
	resp, body := postJSON(t, ts.URL+"/solve", quick)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded solve: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Cancel the long job; its slot frees and the same request succeeds.
	cancel()
	if err := <-longDone; err == nil {
		t.Fatal("canceled long request reported success")
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp, body = postJSON(t, ts.URL+"/solve", quick)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %d %s", resp.StatusCode, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	m := getMetrics(t, ts.URL)
	if m.Jobs.Rejected < 1 {
		t.Fatalf("rejected = %d, want ≥ 1", m.Jobs.Rejected)
	}
	if m.Jobs.Canceled < 1 {
		t.Fatalf("canceled = %d, want ≥ 1 (the abandoned long job)", m.Jobs.Canceled)
	}
}

// A solve that cannot finish inside JobTimeout is cut off collectively and
// reported as 504 with the progress it made. The system is the 1-D
// Laplacian of 40,000 unknowns, whose recurrence residual takes ≈ 6 n
// iterations to fall below Tol 1e-300: ≈ 250,000, seconds at any kernel
// speed. The deadline also covers set-up, which under -race can take the
// whole second, so a zero b (set up in full, solved before the loop reads
// the clock) prepares the system first: the deadline fires inside the
// loop, past iteration 0, however fast an iteration gets.
func TestSolveDeadline(t *testing.T) {
	_, ts := testServer(t, Config{JobTimeout: time.Second})
	code, mr := upload(t, ts.URL, plate(40_000, 1, 1, 0, 0))
	if code != http.StatusOK {
		t.Fatalf("upload: %d", code)
	}
	// The warm-up's set-up can outlast the deadline under -race; it answers
	// 504 then, and its set-up is cached either way.
	warm := solveRequest{Matrix: mr.Matrix, Ranks: 2, RHS: make([]float64, 40_000)}
	canceled := int64(1)
	switch resp, body := postJSON(t, ts.URL+"/solve", warm); resp.StatusCode {
	case http.StatusOK:
	case http.StatusGatewayTimeout:
		canceled++
	default:
		t.Fatalf("warm-up solve: %d %.300s", resp.StatusCode, body)
	}
	req := solveRequest{Matrix: mr.Matrix, Ranks: 2, Tol: 1e-300, MaxIter: 5_000_000}
	resp, body := postJSON(t, ts.URL+"/solve", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline solve: %d %.300s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Fatalf("504 body: %s", body)
	}
	var iters int
	if _, err := fmt.Sscanf(string(body[strings.Index(string(body), "after "):]), "after %d iterations", &iters); err != nil || iters == 0 {
		t.Fatalf("504 body %s: the deadline did not fire inside the loop (%v)", body, err)
	}
	if m := getMetrics(t, ts.URL); m.Jobs.Canceled != canceled {
		t.Fatalf("canceled = %d, want %d", m.Jobs.Canceled, canceled)
	}
}

// A set-up that outlasts JobTimeout is not interrupted, but the job answers
// 504 when it ends, even where the solve would take no iteration (a zero
// right-hand side), and counts as canceled; the prepared system stays
// cached, and the same request again is a cache hit with nothing to solve.
func TestSetupOutlastsDeadline(t *testing.T) {
	_, ts := testServer(t, Config{JobTimeout: time.Millisecond})
	mr := uploadGen(t, ts.URL, "Dubcova2-sim")
	req := solveRequest{Matrix: mr.Matrix, Ranks: 2, RHS: make([]float64, mr.Rows)}
	resp, body := postJSON(t, ts.URL+"/solve", req)
	if resp.StatusCode != http.StatusGatewayTimeout || !strings.Contains(string(body), "deadline during set-up") {
		t.Fatalf("set-up past the deadline: %d %.300s", resp.StatusCode, body)
	}
	if m := getMetrics(t, ts.URL); m.Jobs.Canceled != 1 {
		t.Fatalf("canceled = %d, want 1", m.Jobs.Canceled)
	}
	resp, body = postJSON(t, ts.URL+"/solve", req)
	var sr solveResponse
	if err := json.Unmarshal(body, &sr); resp.StatusCode != http.StatusOK || err != nil || !sr.CacheHit {
		t.Fatalf("second request: %d %v %.300s", resp.StatusCode, err, body)
	}
}

func TestShutdownDrains(t *testing.T) {
	s, ts := testServer(t, Config{})
	mr := uploadGen(t, ts.URL, "Dubcova2-sim")

	// Prime so the in-drain request below would be fast if admitted.
	if resp, body := postJSON(t, ts.URL+"/solve", solveRequest{Matrix: mr.Matrix, Ranks: 2}); resp.StatusCode != 200 {
		t.Fatalf("prime: %d %s", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
	respS, body := postJSON(t, ts.URL+"/solve", solveRequest{Matrix: mr.Matrix, Ranks: 2})
	if respS.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve while draining: %d %s", respS.StatusCode, body)
	}
	if !strings.Contains(string(body), "draining") {
		t.Fatalf("drain body: %s", body)
	}
}

func TestLRUEviction(t *testing.T) {
	var hits, misses, evictions atomic.Int64
	var gone []any
	c := newLRU(100, &hits, &misses, &evictions, func(v any) { gone = append(gone, v) })
	c.Add("a", 1, 40)
	c.Add("b", 2, 40)
	c.Add("c", 3, 40) // over budget: "a" (coldest) must go
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived eviction")
	}
	if len(gone) != 1 || gone[0] != 1 {
		t.Fatalf("eviction hook saw %v, want [1]", gone)
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("b evicted prematurely")
	}
	if evictions.Load() != 1 {
		t.Fatalf("evictions = %d", evictions.Load())
	}
	// Recency matters: touch "b", add "d"; "c" is now coldest.
	c.Add("d", 4, 40)
	if _, ok := c.Get("c"); ok {
		t.Fatal("c survived although b was fresher")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("recently used b evicted")
	}
	// A single oversized entry still caches (newest is never evicted).
	c.Add("huge", 5, 1000)
	if _, ok := c.Get("huge"); !ok {
		t.Fatal("oversized entry not cached")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d after oversized insert", c.Len())
	}
}

// An entry whose footprint changes after insertion is recharged in place:
// the budget is enforced again, from the cold end, without the recharged
// entry moving; an entry the cache has dropped is not put back; Clear hands
// everything left to the hook without counting evictions.
func TestLRURechargeAndClear(t *testing.T) {
	var hits, misses, evictions atomic.Int64
	var gone []any
	c := newLRU(100, &hits, &misses, &evictions, func(v any) { gone = append(gone, v) })
	c.Add("a", 1, 30)
	c.Add("b", 2, 30)
	c.Add("c", 3, 30)
	c.Recharge("b", 2, 60) // 120 > 100: "a", the coldest, goes
	if _, ok := c.Get("a"); ok || len(gone) != 1 || gone[0] != 1 || c.UsedBytes() != 90 {
		t.Fatalf("after recharging b to 60: a cached %v, hook saw %v, %d bytes used", ok, gone, c.UsedBytes())
	}
	c.Recharge("a", 1, 10)  // gone: stays gone
	c.Recharge("c", 99, 10) // another value under the key: not this entry's business
	if c.Len() != 2 || c.UsedBytes() != 90 {
		t.Fatalf("recharging what the cache does not hold changed it: %d entries, %d bytes", c.Len(), c.UsedBytes())
	}
	c.Recharge("b", 2, 30)
	if c.UsedBytes() != 60 {
		t.Fatalf("recharging b back to 30: %d bytes used, want 60", c.UsedBytes())
	}
	before := evictions.Load()
	c.Clear()
	if c.Len() != 0 || c.UsedBytes() != 0 || len(gone) != 3 || evictions.Load() != before {
		t.Fatalf("after Clear: %d entries, %d bytes, hook saw %v, %d evictions (was %d)",
			c.Len(), c.UsedBytes(), gone, evictions.Load(), before)
	}
}

func TestLRUSingleflight(t *testing.T) {
	var hits, misses, evictions atomic.Int64
	c := newLRU(0, &hits, &misses, &evictions, nil)
	var builds atomic.Int64
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	vals := make([]any, n)
	hitFlags := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.GetOrBuild("k", func() (any, int64, error) {
				builds.Add(1)
				<-gate // hold every concurrent caller in the same flight
				return "built", 8, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], hitFlags[i] = v, hit
		}()
	}
	time.Sleep(50 * time.Millisecond) // let all callers reach the flight
	close(gate)
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("build ran %d times", builds.Load())
	}
	nHits := 0
	for i := 0; i < n; i++ {
		if vals[i] != "built" {
			t.Fatalf("caller %d got %v", i, vals[i])
		}
		if hitFlags[i] {
			nHits++
		}
	}
	if nHits != n-1 {
		t.Fatalf("%d callers reported hits, want %d (all but the builder)", nHits, n-1)
	}
	if hits.Load() != int64(n-1) || misses.Load() != 1 {
		t.Fatalf("hits=%d misses=%d", hits.Load(), misses.Load())
	}
}

func TestLRUBuildErrorNotCached(t *testing.T) {
	var hits, misses, evictions atomic.Int64
	c := newLRU(0, &hits, &misses, &evictions, nil)
	wantErr := fmt.Errorf("boom")
	if _, _, err := c.GetOrBuild("k", func() (any, int64, error) { return nil, 0, wantErr }); err != wantErr {
		t.Fatalf("err = %v", err)
	}
	v, _, err := c.GetOrBuild("k", func() (any, int64, error) { return "ok", 1, nil })
	if err != nil || v != "ok" {
		t.Fatalf("retry after failed build: %v, %v", v, err)
	}
}
