package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
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
