package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

// Three concurrent solves of the same system coalesce into one batched
// solve: one batch in the metrics, two coalesced jobs, and each client's
// solution bit-identical to a solo solve of its own right-hand side.
func TestSolveCoalescing(t *testing.T) {
	_, ts := testServer(t, Config{
		MaxInFlight: 1,
		BatchMax:    3,
		BatchWindow: 800 * time.Millisecond,
	})
	mr := uploadGen(t, ts.URL, "Dubcova2-sim")

	// Prime the prepared cache (a batch of one) so the merged batch below
	// is not skewed by the setup build.
	prime := solveRequest{Matrix: mr.Matrix, Ranks: 3, Filter: 0.01, RHSSeed: 99}
	resp, body := postJSON(t, ts.URL+"/solve", prime)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: %d %s", resp.StatusCode, body)
	}
	var primeRes solveResponse
	if err := json.Unmarshal(body, &primeRes); err != nil {
		t.Fatal(err)
	}
	if primeRes.Batched != 1 || primeRes.Coalesced {
		t.Fatalf("prime batch shape: batched=%d coalesced=%v", primeRes.Batched, primeRes.Coalesced)
	}

	const n = 3
	results := make([]solveResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := solveRequest{Matrix: mr.Matrix, Ranks: 3, Filter: 0.01, RHSSeed: int64(i + 1)}
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
	nCoalesced := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !results[i].Converged || !results[i].CacheHit {
			t.Fatalf("client %d: converged=%v hit=%v", i, results[i].Converged, results[i].CacheHit)
		}
		if results[i].Batched != n {
			t.Fatalf("client %d: batched=%d, want %d", i, results[i].Batched, n)
		}
		if results[i].Coalesced {
			nCoalesced++
		}
	}
	if nCoalesced != n-1 {
		t.Fatalf("%d coalesced responses, want %d (all but the leader)", nCoalesced, n-1)
	}

	// Each column must equal the solo solve of the same seed bit for bit.
	for i := 0; i < n; i++ {
		solo := solveRequest{Matrix: mr.Matrix, Ranks: 3, Filter: 0.01, RHSSeed: int64(i + 1)}
		resp, body := postJSON(t, ts.URL+"/solve", solo)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solo %d: %d %s", i, resp.StatusCode, body)
		}
		var sr solveResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Iterations != results[i].Iterations {
			t.Fatalf("client %d: batched %d iterations, solo %d", i, results[i].Iterations, sr.Iterations)
		}
		for j := range sr.X {
			if results[i].X[j] != sr.X[j] {
				t.Fatalf("client %d: x[%d] differs between batched and solo solve", i, j)
			}
		}
	}

	m := getMetrics(t, ts.URL)
	// prime + merged + 3 solo checks = 5 batches, of which the merged one
	// carried 3 jobs (2 coalesced).
	if m.Batch.BatchesTotal != 5 {
		t.Fatalf("batches_total = %d, want 5", m.Batch.BatchesTotal)
	}
	if m.Batch.CoalescedJobs != 2 {
		t.Fatalf("coalesced_jobs = %d, want 2", m.Batch.CoalescedJobs)
	}
	if m.Batch.Occupancy.Count != 5 || m.Batch.Occupancy.SumJobs != 7 {
		t.Fatalf("occupancy count=%d sum=%d, want 5 batches / 7 jobs",
			m.Batch.Occupancy.Count, m.Batch.Occupancy.SumJobs)
	}
	if m.Jobs.Completed != 7 || m.Jobs.Rejected != 0 {
		t.Fatalf("completed=%d rejected=%d", m.Jobs.Completed, m.Jobs.Rejected)
	}
}

// The 429 interaction: a batch holds exactly one admission slot. With the
// only slot busy and a queue of one, three same-system jobs all get
// through — the first queues as batch leader, the other two coalesce onto
// it without consuming queue places — where three independent jobs would
// have seen two 429s.
func TestSolveCoalescingSingleSlot(t *testing.T) {
	_, ts := testServer(t, Config{
		MaxInFlight: 1,
		MaxQueue:    1,
		BatchMax:    4,
		BatchWindow: 300 * time.Millisecond,
		JobTimeout:  time.Minute,
	})
	mr := uploadGen(t, ts.URL, "ecology2-sim")

	// Occupy the slot with a long ineligible (pipelined) job.
	long := solveRequest{Matrix: mr.Matrix, Ranks: 2, CG: "pipelined", Tol: 1e-300, MaxIter: 2_000_000}
	b, _ := json.Marshal(long)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reqLong, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/solve", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	longDone := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(reqLong)
		if err == nil {
			resp.Body.Close()
		}
		close(longDone)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for getMetrics(t, ts.URL).Jobs.InFlight < 1 {
		if time.Now().After(deadline) {
			t.Fatal("long job never started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Three eligible same-system jobs: leader queues, followers coalesce.
	const n = 3
	results := make([]solveResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := solveRequest{Matrix: mr.Matrix, Ranks: 2, Filter: 0.01, RHSSeed: int64(i + 1)}
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

	// Wait until the batch has formed behind the busy slot (leader queued,
	// two coalesced), then release the slot.
	deadline = time.Now().Add(10 * time.Second)
	for {
		m := getMetrics(t, ts.URL)
		if m.Batch.CoalescedJobs >= n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never formed: coalesced=%d queued=%d", m.Batch.CoalescedJobs, m.Jobs.Queued)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	<-longDone
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if results[i].Batched != n || !results[i].Converged {
			t.Fatalf("client %d: batched=%d converged=%v", i, results[i].Batched, results[i].Converged)
		}
	}
	m := getMetrics(t, ts.URL)
	if m.Jobs.Rejected != 0 {
		t.Fatalf("rejected = %d, want 0: coalesced jobs consumed admission slots", m.Jobs.Rejected)
	}
	if m.Batch.BatchesTotal != 1 || m.Batch.CoalescedJobs != n-1 {
		t.Fatalf("batches=%d coalesced=%d, want 1/%d", m.Batch.BatchesTotal, m.Batch.CoalescedJobs, n-1)
	}
}

// A batched fp32 job that runs out of JobTimeout before its first
// refinement is a 504 like its scalar twin, not a 200 carrying x = 0: the
// refinement wrapper reports the cancellation it saw as ErrCanceled. The
// first request sets the system up past its deadline (a 504 of its own, no
// batch run); the second finds it cached and reaches the solve.
func TestBatchedFP32DeadlineIs504(t *testing.T) {
	_, ts := testServer(t, Config{BatchMax: 2, BatchWindow: 10 * time.Millisecond, JobTimeout: time.Nanosecond})
	mr := uploadGen(t, ts.URL, "Dubcova2-sim")
	req := solveRequest{Matrix: mr.Matrix, Ranks: 2, Precision: "fp32"}
	for _, what := range []string{"set-up", "fp32 batch"} {
		if resp, body := postJSON(t, ts.URL+"/solve", req); resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("%s past its deadline: %d %.200s", what, resp.StatusCode, body)
		}
	}
	if m := getMetrics(t, ts.URL); m.Jobs.Canceled != 2 || m.Batch.BatchesTotal != 1 {
		t.Fatalf("canceled = %d, batches = %d, want 2 and 1", m.Jobs.Canceled, m.Batch.BatchesTotal)
	}
}

// Ineligible requests (variants without a batched loop, traced solves)
// bypass coalescing entirely even when batching is configured.
func TestSolveCoalescingEligibility(t *testing.T) {
	_, ts := testServer(t, Config{BatchMax: 4, BatchWindow: 200 * time.Millisecond})
	mr := uploadGen(t, ts.URL, "Dubcova2-sim")
	for _, req := range []solveRequest{
		{Matrix: mr.Matrix, Ranks: 2, CG: "pipelined"},
		{Matrix: mr.Matrix, Ranks: 2, Trace: true},
	} {
		resp, body := postJSON(t, ts.URL+"/solve", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve: %d %s", resp.StatusCode, body)
		}
		var sr solveResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Batched != 0 || sr.Coalesced {
			t.Fatalf("ineligible request was batched: %+v", sr)
		}
	}
	if m := getMetrics(t, ts.URL); m.Batch.BatchesTotal != 0 {
		t.Fatalf("batches_total = %d, want 0", m.Batch.BatchesTotal)
	}
}
