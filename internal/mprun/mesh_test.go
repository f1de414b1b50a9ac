package mprun_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"fsaicomm"
	"fsaicomm/internal/core"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/mprun"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/tcpmpi"
)

// holdOperators sets a system up the way Prepare does and returns what each
// rank would hold: the material of adopting jobs.
func holdOperators(t *testing.T, a *sparse.CSR, ranks int) (*distmat.Layout, []mprun.Operators) {
	t.Helper()
	layout := distmat.NewUniformLayout(a.Rows, ranks)
	held := make([]mprun.Operators, ranks)
	cfg := core.Config{Method: core.FSAIEComm, Filter: 0.01, LineBytes: 64}
	if _, err := simmpi.Run(ranks, 30*time.Second, func(c *simmpi.Comm) error {
		lo, hi := layout.Range(c.Rank())
		aRows := distmat.ExtractLocalRows(a, lo, hi)
		bd, err := core.BuildPrecond(c, layout, aRows, cfg)
		if err != nil {
			return err
		}
		held[c.Rank()] = mprun.Operators{A: mprun.Hold(distmat.NewOp(c, layout, lo, hi, aRows)),
			G: mprun.Hold(bd.GOp), GT: mprun.Hold(bd.GTOp)}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return layout, held
}

// TestMeshConsecutiveJobsMatchSim runs six different jobs one after the other
// on one mesh — scalar classic, scalar fused, a 2-wide batch, fp32 with
// refinement, pipelined under a 2-node topology, and the first one again —
// and compares each, rank by rank, with the same job on goroutine ranks:
// solution, iterations, residual and the solve-phase meter. Every job gets a
// fresh communicator and meter over the long-lived endpoint, so no count and
// no nonblocking chain of one job may show in the next; and the operators
// travel with the first job only.
func TestMeshConsecutiveJobsMatchSim(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	const ranks = 4
	a := matgen.Poisson2D(24, 24)
	layout, held := holdOperators(t, a, ranks)
	b := make([]float64, 2*a.Rows) // two interleaved columns; scalar jobs read the first half as one
	for i := range b {
		b[i] = 1 + float64(i%11)/11
	}
	base := mprun.SolveParams{Tol: 1e-9, MaxIter: 800}
	with := func(f func(sp *mprun.SolveParams)) mprun.SolveParams { sp := base; f(&sp); return sp }
	steps := []struct {
		name string
		k    int
		sp   mprun.SolveParams
	}{
		{"classic", 0, base},
		{"fused", 0, with(func(sp *mprun.SolveParams) { sp.Variant = krylov.CGFused })},
		{"batch of 2", 2, base},
		{"fp32 refined", 0, with(func(sp *mprun.SolveParams) { sp.Precision = krylov.FP32 })},
		{"pipelined on 2 nodes", 0, with(func(sp *mprun.SolveParams) { sp.Variant, sp.Nodes = krylov.CGPipelined, 2 })},
		{"classic again", 0, base},
	}

	mesh, err := mprun.Start(ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	var sent []int64
	for _, step := range steps {
		job := mprun.JobSpec{Layout: layout, K: step.k, Solve: step.sp}
		jobFor := func(rank int) *mprun.JobSpec {
			j := job.ForRank(rank, b)
			j.Adopt = &held[rank]
			return j
		}
		want, err := runSim(ranks, jobFor)
		if err != nil {
			t.Fatalf("%s (sim): %v", step.name, err)
		}
		before := mprun.SentBytes()
		got, err := mesh.Run(context.Background(), jobsOf(ranks, jobFor))
		if err != nil {
			t.Fatalf("%s (mesh): %v", step.name, err)
		}
		sent = append(sent, mprun.SentBytes()-before)
		if !mesh.Reusable() {
			t.Fatalf("%s: mesh not reusable after a clean job", step.name)
		}
		for r := 0; r < ranks; r++ {
			w, g := want[r], got[r]
			if !reflect.DeepEqual(g.XLocal, w.XLocal) {
				t.Errorf("%s rank %d: XLocal differs from sim", step.name, r)
			}
			if g.Iterations != w.Iterations || g.Converged != w.Converged || g.RelResidual != w.RelResidual || g.Refinements != w.Refinements {
				t.Errorf("%s rank %d: stats (%d, %v, %g, %d), sim has (%d, %v, %g, %d)", step.name, r,
					g.Iterations, g.Converged, g.RelResidual, g.Refinements, w.Iterations, w.Converged, w.RelResidual, w.Refinements)
			}
			if !reflect.DeepEqual(g.Batch, w.Batch) {
				t.Errorf("%s rank %d: batch outcome %+v, sim has %+v", step.name, r, g.Batch, w.Batch)
			}
			if g.SolveComm != w.SolveComm {
				t.Errorf("%s rank %d: meters\n got %+v\nwant %+v", step.name, r, g.SolveComm, w.SolveComm)
			}
		}
		converged := want[0].Converged
		if bo := want[0].Batch; bo != nil {
			converged = !slices.Contains(bo.Converged, false)
		}
		if !converged {
			t.Fatalf("%s: oracle did not converge — fixture too hard", step.name)
		}
	}
	// Job 1 carried A, G, Gᵀ and their schedules; a scalar job after it is a
	// right-hand side of n values and a page of parameters.
	if sent[1] > sent[0]/4 || sent[5] > int64(16*a.Rows)+4096 {
		t.Errorf("bytes sent per job %v: the operators were not kept by the workers", sent)
	}
}

// poissonRHS is the fixture of the Prepared-level tests: large enough that a
// solve with an unreachable tolerance keeps iterating (a small grid hits an
// exact-zero residual within milliseconds).
func poissonRHS() (*sparse.CSR, []float64) {
	a := matgen.Poisson2D(64, 64)
	return a, fsaicomm.GenerateRHS(a, 5)
}

// sameResult requires got to be bit-identical to want.
func sameResult(t *testing.T, what string, got, want *fsaicomm.Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.RelResidual != want.RelResidual || !got.Converged ||
		got.CommBytes != want.CommBytes || got.CollectiveCalls != want.CollectiveCalls || !reflect.DeepEqual(got.X, want.X) {
		t.Errorf("%s: (%d iterations, residual %g, %d B, %d collectives) differs from the reference (%d, %g, %d, %d) or in x",
			what, got.Iterations, got.RelResidual, got.CommBytes, got.CollectiveCalls,
			want.Iterations, want.RelResidual, want.CommBytes, want.CollectiveCalls)
	}
}

// TestPreparedReusesMesh: the tcp solves of one Prepared run on one set of
// worker processes, which are sent the operators once; Close reaps them.
func TestPreparedReusesMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	const ranks = 3
	var meshes []*mprun.Mesh
	mprun.WatchMeshes(t, func(m *mprun.Mesh) { meshes = append(meshes, m) })
	a, b := poissonRHS()
	p, err := fsaicomm.Prepare(a, fsaicomm.Options{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := p.Solve(ctx, b, fsaicomm.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idle := p.SizeBytes()
	start := mprun.ReadCounters()
	var sent []int64
	for i, so := range []fsaicomm.SolveOptions{{}, {}, {CGVariant: fsaicomm.CGFused}, {}} {
		so.Transport = "tcp"
		before := mprun.SentBytes()
		got, err := p.Solve(ctx, b, so)
		if err != nil {
			t.Fatalf("tcp solve %d: %v", i+1, err)
		}
		sent = append(sent, mprun.SentBytes()-before)
		if so.CGVariant == fsaicomm.CGClassic {
			sameResult(t, "tcp solve on the resident mesh", got, want)
		}
	}
	now := mprun.ReadCounters()
	if spawned := now.WorkerSpawns - start.WorkerSpawns; spawned != ranks || len(meshes) != 1 {
		t.Fatalf("4 tcp solves spawned %d workers in %d meshes, want %d in 1", spawned, len(meshes), ranks)
	}
	if reuses := now.MeshReuses - start.MeshReuses; reuses != 3 {
		t.Errorf("%d mesh reuses counted, want 3", reuses)
	}
	if now.MeshesResident != start.MeshesResident+1 {
		t.Errorf("%d meshes resident, want %d", now.MeshesResident, start.MeshesResident+1)
	}
	if sent[1] > sent[0]/4 {
		t.Errorf("bytes sent per solve %v: solve 2 shipped the operators again", sent)
	}
	if held := p.SizeBytes(); held < 2*idle {
		t.Errorf("SizeBytes %d with resident workers, %d without: the workers' copy and resident set are not charged", held, idle)
	} else if rings := meshes[0].RingBytes(); rings != tcpmpi.MeshBytes(ranks) || held-idle < meshes[0].IdleRSS()+rings {
		t.Errorf("SizeBytes grew by %d with resident workers: less than their idle resident set %d plus %d bytes of rings (a mesh of %d maps %d)",
			held-idle, meshes[0].IdleRSS(), rings, ranks, tcpmpi.MeshBytes(ranks))
	}
	p.Close()
	if !meshes[0].Reaped() {
		t.Error("a worker process outlived Prepared.Close")
	}
	if got := mprun.ReadCounters().MeshesResident; got != start.MeshesResident {
		t.Errorf("%d meshes resident after Close, want %d", got, start.MeshesResident)
	}
	if got := p.SizeBytes(); got != idle {
		t.Errorf("SizeBytes %d after Close, want %d", got, idle)
	}
	// A closed system still solves, on workers of the solve's own.
	got, err := p.Solve(ctx, b, fsaicomm.SolveOptions{Transport: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "tcp solve after Close", got, want)
	if len(meshes) != 2 || !meshes[1].Reaped() {
		t.Errorf("a tcp solve on a closed system left workers behind (%d meshes started)", len(meshes))
	}
}

// settle waits for the goroutine count to come back to base: everything a
// lost or canceled job started must have ended.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the fault:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPreparedSurvivesLostWorkersAndCancels is the fault table of a resident
// mesh. A worker killed while idle, a worker killed in the middle of a solve
// and a cancel in the middle of a solve each cost the one solve they hit —
// with a typed error, within a bound — and nothing else: the next solve on
// the same Prepared starts new workers and returns the bits of the
// reference, every process of the replaced mesh has been reaped, and no
// goroutine is left over.
func TestPreparedSurvivesLostWorkersAndCancels(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	const ranks = 2
	var mu sync.Mutex
	var meshes []*mprun.Mesh
	mprun.WatchMeshes(t, func(m *mprun.Mesh) { mu.Lock(); meshes = append(meshes, m); mu.Unlock() })
	current := func() *mprun.Mesh { mu.Lock(); defer mu.Unlock(); return meshes[len(meshes)-1] }
	a, b := poissonRHS()
	p, err := fsaicomm.Prepare(a, fsaicomm.Options{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	tcp := fsaicomm.SolveOptions{Transport: "tcp"}
	// An unreachable (but positive: zero means "default") tolerance keeps a
	// solve iterating until something stops it — the fault, which therefore
	// comes early: left alone for some 1,500 iterations (300 ms on a quiet
	// host) the residual underflows and the solve ends in a breakdown.
	endless := fsaicomm.SolveOptions{Transport: "tcp", Tol: 1e-300, MaxIter: 1 << 30}
	want, err := p.Solve(ctx, b, tcp)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	for _, fault := range []struct {
		name string
		hit  func() error // runs the solve the fault hits and returns its error
		want error
	}{
		{"worker killed while idle", func() error {
			if err := current().KillWorker(1); err != nil {
				t.Fatal(err)
			}
			_, err := p.Solve(ctx, b, tcp)
			return err
		}, fsaicomm.ErrRankLost},
		{"worker killed mid-solve", func() error {
			m := current()
			time.AfterFunc(100*time.Millisecond, func() { m.KillWorker(0) })
			_, err := p.Solve(ctx, b, endless)
			return err
		}, fsaicomm.ErrRankLost},
		{"canceled mid-solve", func() error {
			cctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
			defer cancel()
			res, err := p.Solve(cctx, b, endless)
			if res == nil || len(res.X) != a.Rows {
				t.Errorf("canceled solve returned no partial result")
			}
			return err
		}, fsaicomm.ErrCanceled},
	} {
		hitMesh := current()
		start := time.Now()
		err := fault.hit()
		if !errors.Is(err, fault.want) {
			t.Fatalf("%s: error %v, want one wrapping %v", fault.name, err, fault.want)
		}
		if took := time.Since(start); took > 20*time.Second {
			t.Errorf("%s: the solve took %v to fail", fault.name, took)
		}
		if !hitMesh.Reaped() {
			t.Errorf("%s: workers of the mesh it hit are still unreaped", fault.name)
		}
		settle(t, base)
		got, err := p.Solve(ctx, b, tcp)
		if err != nil {
			t.Fatalf("%s: next solve: %v", fault.name, err)
		}
		sameResult(t, fault.name+": next solve", got, want)
		if current() == hitMesh {
			t.Errorf("%s: the next solve reused the mesh the fault hit", fault.name)
		}
	}
	p.Close()
	if !current().Reaped() {
		t.Error("a worker process outlived Prepared.Close")
	}
	settle(t, base)
}

// ringFilesLeft lists the ring files that still have a name two seconds on:
// meshes of other test binaries form at the same time, and a file is named
// for the few milliseconds of its connection's handshake.
func ringFilesLeft(t *testing.T) []string {
	t.Helper()
	var left []string
	for wait := time.Duration(0); wait < 2*time.Second; wait += 50 * time.Millisecond {
		left = left[:0]
		for _, dir := range []string{"/dev/shm", os.TempDir()} {
			found, _ := filepath.Glob(filepath.Join(dir, "fsaicomm-ring-*"))
			left = append(left, found...)
		}
		if len(left) == 0 {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return left
}

// TestWorkerKilledWhilePeersPollOrSleep SIGKILLs a worker in the middle of a
// solve whose other ranks wait the two ways a rank waits for a message:
// polling a ring (two ranks: a peer in step answers within the poll) and
// asleep on the doorbell (four ranks: with fewer cores than ranks some peer
// is always far enough behind for a poll to run out). The third wait, asleep
// with the outbound ring full, needs a peer that takes nothing out while it
// is sent more than a ring holds, which no rank job does; tcpmpi's
// TestPeerLostWhileParkedOnAFullRing kills a process in that state. Each time
// the solve fails with ErrRankLost within the bound, the mesh is reaped, no
// goroutine and no ring file is left — nor after Start or Close — and the
// next solve, on new workers, returns the reference's bits.
func TestWorkerKilledWhilePeersPollOrSleep(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	var mu sync.Mutex
	var meshes []*mprun.Mesh
	mprun.WatchMeshes(t, func(m *mprun.Mesh) { mu.Lock(); meshes = append(meshes, m); mu.Unlock() })
	current := func() *mprun.Mesh { mu.Lock(); defer mu.Unlock(); return meshes[len(meshes)-1] }
	a, b := poissonRHS()
	ctx := context.Background()
	tcp := fsaicomm.SolveOptions{Transport: "tcp"}
	endless := fsaicomm.SolveOptions{Transport: "tcp", Tol: 1e-300, MaxIter: 1 << 30}
	for _, tc := range []struct {
		name          string
		ranks, victim int
	}{
		{"peer polling", 2, 1},
		{"peers asleep on the doorbell", 4, 2},
	} {
		p, err := fsaicomm.Prepare(a, fsaicomm.Options{Ranks: tc.ranks})
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Solve(ctx, b, tcp) // starts the resident mesh
		if err != nil {
			t.Fatalf("%s: reference solve: %v", tc.name, err)
		}
		if left := ringFilesLeft(t); left != nil {
			t.Errorf("%s: a formed mesh left ring files behind: %v", tc.name, left)
		}
		base := runtime.NumGoroutine()
		hitMesh := current()
		start := time.Now()
		time.AfterFunc(100*time.Millisecond, func() { hitMesh.KillWorker(tc.victim) })
		if _, err := p.Solve(ctx, b, endless); !errors.Is(err, fsaicomm.ErrRankLost) {
			t.Fatalf("%s: error %v, want one wrapping ErrRankLost", tc.name, err)
		}
		if took := time.Since(start); took > 20*time.Second {
			t.Errorf("%s: the solve took %v to fail", tc.name, took)
		}
		if !hitMesh.Reaped() {
			t.Errorf("%s: workers of the mesh it hit are still unreaped", tc.name)
		}
		settle(t, base)
		if left := ringFilesLeft(t); left != nil {
			t.Errorf("%s: the kill left ring files behind: %v", tc.name, left)
		}
		got, err := p.Solve(ctx, b, tcp)
		if err != nil {
			t.Fatalf("%s: next solve: %v", tc.name, err)
		}
		sameResult(t, tc.name+": next solve", got, want)
		if current() == hitMesh {
			t.Errorf("%s: the next solve reused the mesh the kill hit", tc.name)
		}
		p.Close()
		if !current().Reaped() {
			t.Errorf("%s: a worker process outlived Prepared.Close", tc.name)
		}
		if left := ringFilesLeft(t); left != nil {
			t.Errorf("%s: Close left ring files behind: %v", tc.name, left)
		}
	}
}

// TestPreparedConcurrentTCPSolves: a second tcp solve that arrives while the
// resident mesh is busy does not wait for it and does not share it — it
// brings workers of its own and takes them away again — and both are right.
func TestPreparedConcurrentTCPSolves(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	const ranks = 2
	a, b := poissonRHS()
	p, err := fsaicomm.Prepare(a, fsaicomm.Options{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	want, err := p.Solve(ctx, b, fsaicomm.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The first mesh to form (the resident one: its solve holds the system's
	// mesh lock) is held in Start until the second has formed too, so the two
	// solves are certain to overlap.
	started := make(chan *mprun.Mesh, 2)
	release := make(chan struct{})
	mprun.WatchMeshes(t, func(m *mprun.Mesh) { started <- m; <-release })
	results := make([]*fsaicomm.Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	solve := func(i int) {
		defer wg.Done()
		results[i], errs[i] = p.Solve(ctx, b, fsaicomm.SolveOptions{Transport: "tcp"})
	}
	wg.Add(2)
	go solve(0)
	resident := <-started
	go solve(1)
	transient := <-started
	close(release)
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("concurrent tcp solve %d: %v", i, errs[i])
		}
		sameResult(t, "concurrent tcp solve", results[i], want)
	}
	if !transient.Reaped() {
		t.Error("the transient mesh outlived its solve")
	}
	if resident.Reaped() {
		t.Error("the resident mesh did not survive its solve")
	}
}

// TestWorkersExitWhenCoordinatorGoes: idle workers end by themselves when
// their coordinator connection closes — a process that never calls Close
// (the benchmark harness, a crashed server) leaves nothing running. The
// connections are closed here without the kill that Close adds.
func TestWorkersExitWhenCoordinatorGoes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	mesh, err := mprun.Start(2)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	exited := make(chan error, 1)
	go func() { exited <- mesh.HangUpAndWait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("an idle worker whose coordinator went away exited with: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("idle workers still running 10 s after their coordinator connection closed")
	}
}
