package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// childPids lists this process's children — rank workers, here — zombies
// included, so a killed worker counts until it has been reaped.
func childPids(t *testing.T) []int {
	t.Helper()
	procs, err := os.ReadDir("/proc")
	if err != nil {
		t.Skip("needs /proc to see the worker processes")
	}
	var kids []int
	for _, e := range procs {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile("/proc/" + e.Name() + "/stat")
		if err != nil {
			continue // gone between the listing and the read
		}
		// "pid (comm) state ppid ...": comm may hold anything, so cut at its end.
		if f := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:])); len(f) > 1 && f[1] == strconv.Itoa(os.Getpid()) {
			kids = append(kids, pid)
		}
	}
	return kids
}

// TestRankWorkersFollowThePreparedCache drives the lifetime rule of resident
// rank workers through the daemon: tcp solves of a cached system reuse one
// set of workers; a killed worker fails the one request it hits and neither
// the daemon's health nor the cache entry; a system pushed out of the cache
// — by the byte budget, which a system holding workers is charged for them —
// takes its workers along; and Shutdown leaves no child process behind.
func TestRankWorkersFollowThePreparedCache(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	// Room for both systems' operators, not for one system's workers beside
	// another system.
	s, ts := testServer(t, Config{CacheBytes: 4 << 20})
	before := getMetrics(t, ts.URL).Ranks
	kidsBefore := len(childPids(t))
	solve := func(matrix, transport string) (int, solveResponse) {
		resp, body := postJSON(t, ts.URL+"/solve", solveRequest{Matrix: matrix, Ranks: 2, Transport: transport})
		var sr solveResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, sr
	}
	a := uploadGen(t, ts.URL, "Dubcova2-sim").Matrix
	b := uploadGen(t, ts.URL, "gyro-sim").Matrix

	_, want := solve(a, "sim")
	for i := 0; i < 3; i++ {
		code, got := solve(a, "tcp")
		if code != http.StatusOK || !reflect.DeepEqual(got.X, want.X) || got.Iterations != want.Iterations {
			t.Fatalf("tcp solve %d: HTTP %d, %d iterations (sim: %d), x equal: %v", i+1, code, got.Iterations, want.Iterations, reflect.DeepEqual(got.X, want.X))
		}
	}
	m := getMetrics(t, ts.URL).Ranks
	if m.WorkerSpawns != before.WorkerSpawns+2 || m.MeshReuses != before.MeshReuses+2 || m.MeshesResident != before.MeshesResident+1 {
		t.Fatalf("after 3 tcp solves of one system /metrics ranks = %+v (before: %+v), want 2 spawns, 2 reuses, 1 resident mesh", m, before)
	}
	kids := childPids(t)
	if len(kids) != kidsBefore+2 {
		t.Fatalf("%d child processes, want %d", len(kids), kidsBefore+2)
	}

	// A worker dies between requests: that costs the next request, and only it.
	if err := syscall.Kill(kids[len(kids)-1], syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if code, _ := solve(a, "tcp"); code == http.StatusOK {
		t.Fatal("a solve on a mesh with a killed worker answered 200")
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after a killed worker: %v %v", resp, err)
	}
	code, got := solve(a, "tcp")
	if code != http.StatusOK || !got.CacheHit || !reflect.DeepEqual(got.X, want.X) {
		t.Fatalf("solve after the lost worker: HTTP %d, cache hit %v, x equal %v", code, got.CacheHit, reflect.DeepEqual(got.X, want.X))
	}
	if n := len(childPids(t)); n != kidsBefore+2 {
		t.Fatalf("%d child processes after the respawn, want %d (the hit mesh reaped, a new one up)", n, kidsBefore+2)
	}

	// The second system arrives; with a's workers charged, both do not fit.
	if code, _ := solve(b, "tcp"); code != http.StatusOK {
		t.Fatalf("tcp solve of the second system: HTTP %d", code)
	}
	all := getMetrics(t, ts.URL)
	if all.Cache.Prepared.Evictions < 1 || all.Cache.Prepared.Entries != 1 {
		t.Fatalf("prepared cache after the second system: %+v, want the first evicted", all.Cache.Prepared)
	}
	if all.Ranks.MeshesResident != before.MeshesResident+1 {
		t.Fatalf("%d meshes resident with one system cached, want %d", all.Ranks.MeshesResident, before.MeshesResident+1)
	}
	if n := len(childPids(t)); n != kidsBefore+2 {
		t.Fatalf("%d child processes with one system cached, want %d", n, kidsBefore+2)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if n, res := len(childPids(t)), getMetrics(t, ts.URL).Ranks.MeshesResident; n != kidsBefore || res != before.MeshesResident {
		t.Fatalf("after Shutdown: %d child processes (want %d), %d meshes resident (want %d)", n, kidsBefore, res, before.MeshesResident)
	}
}
