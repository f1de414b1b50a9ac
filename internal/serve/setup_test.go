package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fsaicomm"
)

// TestHostileSizeLineIs400: a 90-byte body whose size line asks for 4·10¹⁵
// rows used to panic the handler inside make; it must be a 400, and the
// server must still be there afterwards.
func TestHostileSizeLineIs400(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, body := range []string{
		"%%MatrixMarket matrix coordinate real general\n4000000000000000 4000000000000000 0",
		"%%MatrixMarket matrix coordinate real general\n-1 -1 0\n",
		"%%MatrixMarket matrix coordinate real general\n100 100 4000000000000000\n1 1 1\n",
	} {
		resp, err := http.Post(ts.URL+"/matrix", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatalf("server dropped the connection on %q: %v", body, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("size line %q: status %d %s, want 400", strings.SplitN(body, "\n", 2)[1], resp.StatusCode, msg)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after hostile uploads: %d", resp.StatusCode)
	}
	if m := getMetrics(t, ts.URL); m.Cache.Matrices.Entries != 0 {
		t.Fatalf("%d matrices cached from rejected uploads", m.Cache.Matrices.Entries)
	}
}

// TestSetupPhasesOnMissOnly: the response that paid for a Prepare says where
// the time went; a cached response carries no such field (its bytes are
// unchanged); /metrics sums the phases over Prepares.
func TestSetupPhasesOnMissOnly(t *testing.T) {
	_, ts := testServer(t, Config{})
	mr := uploadGen(t, ts.URL, "ecology2-sim")
	solve := func(filter float64) (solveResponse, []byte) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/solve", solveRequest{Matrix: mr.Matrix, Ranks: 2, Method: "fsaie-comm", Filter: filter})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve: %d %s", resp.StatusCode, body)
		}
		var sr solveResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		return sr, body
	}

	first, _ := solve(0)
	ph := first.SetupPhases
	if first.CacheHit || ph == nil {
		t.Fatalf("cache miss without setup_phases_ms: hit=%v phases=%v", first.CacheHit, ph)
	}
	if ph.Partition <= 0 || ph.FirstBuild <= 0 || ph.Transpose <= 0 || ph.HaloPlans <= 0 {
		t.Fatalf("phases not timed: %+v", ph)
	}
	if sum := ph.Partition + ph.Permute + ph.Extend + ph.FirstBuild + ph.Filter + ph.Rebuild + ph.Transpose + ph.HaloPlans; sum > first.SetupMs {
		t.Fatalf("phases sum to %g ms, more than setup_ms %g", sum, first.SetupMs)
	}
	// Filter 0 drops nothing: every row of the factor is reused.
	if ph.RowsSolved != 0 || ph.RowsReused != int64(mr.Rows) {
		t.Fatalf("filter 0: %d rows reused, %d solved again, want %d and 0", ph.RowsReused, ph.RowsSolved, mr.Rows)
	}

	second, raw := solve(0)
	if !second.CacheHit || second.SetupPhases != nil || bytes.Contains(raw, []byte("setup_phases_ms")) {
		t.Fatalf("cached response carries setup phases: hit=%v", second.CacheHit)
	}

	// A filter that bites re-solves some rows and keeps the rest.
	third, _ := solve(0.05)
	if ph3 := third.SetupPhases; ph3 == nil || ph3.RowsSolved == 0 || ph3.RowsReused == 0 ||
		ph3.RowsReused+ph3.RowsSolved != int64(mr.Rows) {
		t.Fatalf("filter 0.05: phases %+v over %d rows", ph3, mr.Rows)
	}

	m := getMetrics(t, ts.URL)
	tot := m.SetupPhasesMs
	if tot == nil || m.Cache.Prepared.Misses != 2 {
		t.Fatalf("metrics: phases %v, %d prepares", tot, m.Cache.Prepared.Misses)
	}
	if want := ph.RowsReused + third.SetupPhases.RowsReused; tot.RowsReused != want {
		t.Fatalf("metrics rows_reused %d, want %d", tot.RowsReused, want)
	}
	if tot.FirstBuild < ph.FirstBuild+third.SetupPhases.FirstBuild-1e-6 {
		t.Fatalf("metrics first_build %g ms is less than the two Prepares' %g + %g",
			tot.FirstBuild, ph.FirstBuild, third.SetupPhases.FirstBuild)
	}
}

// plate is the 5-point conduction operator of an nx×ny plate: one sparsity
// pattern whatever the conductivities, SPD while they and the shift are
// positive. A small ky makes the factor's vertical couplings the ones a
// filter drops.
func plate(nx, ny int, kx, ky, shift float64) *fsaicomm.Matrix {
	c := fsaicomm.NewCOO(nx*ny, nx*ny)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := y*nx + x
			if x > 0 {
				c.Add(i, i-1, -kx)
			}
			if x < nx-1 {
				c.Add(i, i+1, -kx)
			}
			if y > 0 {
				c.Add(i, i-nx, -ky)
			}
			if y < ny-1 {
				c.Add(i, i+nx, -ky)
			}
			c.Add(i, i, 2*kx+2*ky+shift)
		}
	}
	return c.ToCSR()
}

// upload posts a as a MatrixMarket body and returns status and answer.
func upload(t testing.TB, base string, a *fsaicomm.Matrix) (int, matrixResponse) {
	t.Helper()
	var buf bytes.Buffer
	if err := fsaicomm.WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/matrix", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr matrixResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, mr
}

// solveOn posts one /solve and returns status, decoded answer and raw body.
func solveOn(t testing.TB, base string, q solveRequest) (int, solveResponse, []byte) {
	t.Helper()
	b, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/solve", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sr solveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, sr, raw
}

// libraryX is what the library answers for the request the tests below post:
// a from-scratch Prepare and one solve of the seed-1 right-hand side.
func libraryX(t testing.TB, a *fsaicomm.Matrix, filter float64) []float64 {
	t.Helper()
	p, err := fsaicomm.Prepare(a, fsaicomm.Options{Method: fsaicomm.FSAIEComm, Ranks: 2, Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Solve(context.Background(), fsaicomm.GenerateRHS(a, 1), fsaicomm.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res.X
}

func sameX(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// TestPatternHitMissReplan: a prepared-cache miss on a pattern the cache
// knows is set up from the cached system — no partition, no extension, the
// same answer as a set-up from nothing — and says so; where the new values
// move the filtered pattern it re-plans; another option set is a pattern
// miss; /metrics counts all three.
func TestPatternHitMissReplan(t *testing.T) {
	_, ts := testServer(t, Config{})
	ask := func(a *fsaicomm.Matrix, filter float64) (solveResponse, []byte) {
		t.Helper()
		code, mr := upload(t, ts.URL, a)
		if code != http.StatusOK || mr.Cached {
			t.Fatalf("upload: %d cached=%v", code, mr.Cached)
		}
		code, sr, raw := solveOn(t, ts.URL, solveRequest{Matrix: mr.Matrix, Ranks: 2, Method: "fsaie-comm", Filter: filter})
		if code != http.StatusOK {
			t.Fatalf("solve: %d %s", code, raw)
		}
		if !sameX(sr.X, libraryX(t, a, filter)) {
			t.Fatalf("x differs from the library's for the same matrix and options (pattern_hit=%v)", sr.PatternHit)
		}
		return sr, raw
	}
	counters := func() [3]int64 {
		p := getMetrics(t, ts.URL).Cache.Prepared
		return [3]int64{p.PatternHits, p.PatternMisses, p.PatternReplans}
	}

	first, raw := ask(plate(12, 10, 1, 1, 0.05), 0.05)
	if first.CacheHit || first.PatternHit || bytes.Contains(raw, []byte("pattern_hit")) || first.SetupPhases.Partition <= 0 {
		t.Fatalf("first upload of a pattern: %+v", first.SetupPhases)
	}
	if got := counters(); got != [3]int64{0, 1, 0} {
		t.Fatalf("pattern hits, misses, replans %v after the first upload", got)
	}

	moved, _ := ask(plate(12, 10, 1, 0.02, 0.05), 0.05) // vertical couplings now fall under the filter
	ph := moved.SetupPhases
	if moved.CacheHit || !moved.PatternHit || moved.SetupMs <= 0 || ph == nil {
		t.Fatalf("known pattern, new values: cache_hit=%v pattern_hit=%v setup_ms=%g", moved.CacheHit, moved.PatternHit, moved.SetupMs)
	}
	if ph.Partition != 0 || ph.Extend != 0 || ph.FirstBuild <= 0 || ph.Rebuild <= 0 {
		t.Fatalf("phases of a pattern hit: %+v", ph)
	}
	if got := counters(); got != [3]int64{1, 1, 1} {
		t.Fatalf("pattern hits, misses, replans %v after values that move the filtered pattern", got)
	}

	stayed, _ := ask(plate(12, 10, 1.01, 0.0202, 0.05), 0.05)
	if !stayed.PatternHit {
		t.Fatal("third upload of the pattern missed it")
	}
	if got := counters(); got != [3]int64{2, 1, 1} {
		t.Fatalf("pattern hits, misses, replans %v after values that leave the filtered pattern standing", got)
	}

	other, _ := ask(plate(12, 10, 1.5, 1, 0.05), 0) // no system with these options yet
	if other.PatternHit || other.SetupPhases.Partition <= 0 {
		t.Fatalf("first set-up under other options took a donor: %+v", other.SetupPhases)
	}
	again, _ := ask(plate(12, 10, 1.6, 1, 0.05), 0)
	if ph := again.SetupPhases; !again.PatternHit || ph.Filter != 0 || ph.Rebuild != 0 || ph.RowsReused != 120 {
		t.Fatalf("Filter 0 pattern hit: %+v", ph)
	}
	if got := counters(); got != [3]int64{3, 2, 1} {
		t.Fatalf("pattern hits, misses, replans %v at the end", got)
	}
}

// TestPatternFaults: values the factor phase refuses on a known pattern are
// a 4xx and leave no cache entry; the donor keeps answering with the same
// bits; a child outlives its evicted donor; with the donor gone from the
// cache the next upload of the pattern is set up in full.
func TestPatternFaults(t *testing.T) {
	s, ts := testServer(t, Config{})
	a := plate(10, 10, 1, 1, 0.05)
	_, mr := upload(t, ts.URL, a)
	req := solveRequest{Matrix: mr.Matrix, Ranks: 2, Method: "fsaie-comm", Filter: 0.01}
	code, donor, raw := solveOn(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("donor solve: %d %s", code, raw)
	}

	indefinite, lopsided := a.Clone(), a.Clone()
	for i := 0; i < a.Rows; i++ {
		cols, vals := indefinite.Row(i)
		for k, j := range cols {
			if j == i {
				vals[k] = -vals[k]
			}
		}
	}
	lopsided.Val[1] *= 2
	for name, bad := range map[string]*fsaicomm.Matrix{"indefinite": indefinite, "asymmetric": lopsided} {
		code, bmr := upload(t, ts.URL, bad)
		if code != http.StatusOK {
			t.Fatalf("%s upload: %d", name, code)
		}
		bq := req
		bq.Matrix = bmr.Matrix
		if code, _, raw := solveOn(t, ts.URL, bq); code < 400 || code > 499 {
			t.Fatalf("%s matrix on a known pattern: %d %s, want a 4xx", name, code, raw)
		}
	}
	m := getMetrics(t, ts.URL)
	if p := m.Cache.Prepared; p.Entries != 1 || p.PatternHits != 0 {
		t.Fatalf("after two refused set-ups: %d prepared entries, %d pattern hits", p.Entries, p.PatternHits)
	}
	code, again, _ := solveOn(t, ts.URL, req)
	if code != http.StatusOK || !again.CacheHit || !sameX(again.X, donor.X) {
		t.Fatalf("donor after refused refactors: %d cache_hit=%v", code, again.CacheHit)
	}

	// A child stays whole when its donor leaves the cache.
	a2 := plate(10, 10, 1, 0.4, 0.05)
	_, mr2 := upload(t, ts.URL, a2)
	req2 := req
	req2.Matrix = mr2.Matrix
	if code, child, _ := solveOn(t, ts.URL, req2); code != http.StatusOK || !child.PatternHit {
		t.Fatalf("child set-up: %d pattern_hit=%v", code, child.PatternHit)
	}
	mv, _ := s.matrices.Get(mr.Matrix)
	setup, err := fsaicomm.Options{Method: fsaicomm.FSAIEComm, Filter: 0.01, Ranks: 2}.Canonical(mv.(*uploaded).a)
	if err != nil {
		t.Fatal(err)
	}
	donorKey := setupKey(mr.Matrix, patternOf(t, s, mr.Matrix), setup)
	s.prepared.mu.Lock()
	el := s.prepared.items[donorKey]
	s.prepared.mu.Unlock()
	if el == nil {
		t.Fatalf("no prepared entry under %q", donorKey)
	}
	s.prepared.Recharge(donorKey, el.Value.(*lruEntry).val, 1<<40) // over budget: the cold end goes
	if n := s.prepared.Len(); n != 1 {
		t.Fatalf("%d prepared entries after the donor was pushed out, want the child alone", n)
	}
	code, child, _ := solveOn(t, ts.URL, req2)
	if code != http.StatusOK || !child.CacheHit || !sameX(child.X, libraryX(t, a2, 0.01)) {
		t.Fatalf("child of an evicted, closed donor: %d cache_hit=%v", code, child.CacheHit)
	}

	// No live donor: the pattern is analysed again.
	s.prepared.Clear()
	a3 := plate(10, 10, 1, 0.7, 0.05)
	_, mr3 := upload(t, ts.URL, a3)
	req3 := req
	req3.Matrix = mr3.Matrix
	code, full, _ := solveOn(t, ts.URL, req3)
	if code != http.StatusOK || full.PatternHit || full.SetupPhases.Partition <= 0 || !sameX(full.X, libraryX(t, a3, 0.01)) {
		t.Fatalf("set-up with the donor gone: %d pattern_hit=%v", code, full.PatternHit)
	}
}

// patternOf reads the pattern digest the server keeps for an uploaded
// matrix.
func patternOf(t *testing.T, s *Server, fp string) string {
	t.Helper()
	v, ok := s.matrices.Get(fp)
	if !ok {
		t.Fatalf("matrix %s not cached", fp)
	}
	return v.(*uploaded).pattern
}

// FuzzPatternRace uploads two matrices of one sparsity pattern, values drawn
// from the input, and sets both up at once — against each other and against
// whatever earlier inputs left in the cache. Whatever the values, each
// request ends in a 4xx or in the answer the library gives for that matrix
// alone; nothing hangs, and nothing a racing or refused set-up did shows in
// another's x.
func FuzzPatternRace(f *testing.F) {
	f.Add(1.0, 1.0, 1.0, 0.02)  // the second moves the filtered pattern
	f.Add(1.0, 0.5, 1.0, 0.5)   // the same matrix twice: one set-up, one rider
	f.Add(2.0, 0.3, -1.0, 0.3)  // one of the two is not positive definite
	f.Add(1e-3, 1e3, 1e3, 1e-3) // far apart in scale
	s := New(Config{})
	ts := httptest.NewServer(s)
	f.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			f.Error(err)
		}
	})
	f.Fuzz(func(t *testing.T, kx1, ky1, kx2, ky2 float64) {
		var wg sync.WaitGroup
		for _, k := range [][2]float64{{kx1, ky1}, {kx2, ky2}} {
			a := plate(8, 6, k[0], k[1], 0.05)
			wg.Add(1)
			go func() {
				defer wg.Done()
				code, mr := upload(t, ts.URL, a)
				if code != http.StatusOK {
					if code < 400 || code > 499 {
						t.Errorf("upload: %d", code)
					}
					return
				}
				code, sr, raw := solveOn(t, ts.URL, solveRequest{Matrix: mr.Matrix, Ranks: 2, Method: "fsaie-comm", Filter: 0.05})
				if code != http.StatusOK {
					if code < 400 || code > 499 {
						t.Errorf("solve: %d %s", code, raw)
					}
					return
				}
				p, err := fsaicomm.Prepare(a, fsaicomm.Options{Method: fsaicomm.FSAIEComm, Ranks: 2, Filter: 0.05})
				if err != nil {
					t.Errorf("the server answered 200 for a matrix the library refuses: %v", err)
					return
				}
				// A solve that breaks down or stalls still has its x compared.
				res, _ := p.Solve(context.Background(), fsaicomm.GenerateRHS(a, 1), fsaicomm.SolveOptions{})
				if res == nil || !sameX(sr.X, res.X) {
					t.Errorf("kx %g ky %g: x differs from the library's (pattern_hit=%v cache_hit=%v)", k[0], k[1], sr.PatternHit, sr.CacheHit)
				}
			}()
		}
		wg.Wait()
	})
}
