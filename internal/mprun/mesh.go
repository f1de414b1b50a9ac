package mprun

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync/atomic"
	"time"

	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/tcpmpi"
)

const (
	// startTimeout bounds Start: spawn, rendezvous and mesh formation.
	startTimeout = 30 * time.Second
	// opTimeout bounds each blocking transport operation of a job, as the
	// facade's in-process worlds do. A dead peer shows at once by its closed
	// connection; this only ends a live-lock.
	opTimeout = time.Hour
	// killGrace is how long a canceled job's workers get to report partial
	// outcomes before they are killed.
	killGrace = 5 * time.Second
)

// Counters are this process's rank-worker totals, for /metrics.
type Counters struct {
	WorkerSpawns   int64 `json:"rank_worker_spawns"`   // worker processes started
	MeshReuses     int64 `json:"rank_mesh_reuses"`     // jobs run on a mesh that had run one before
	MeshesResident int64 `json:"rank_meshes_resident"` // meshes started and not yet closed
}

var counters struct{ spawns, reuses, resident, sentBytes atomic.Int64 }

// ReadCounters returns the totals as they stand.
func ReadCounters() Counters {
	return Counters{counters.spawns.Load(), counters.reuses.Load(), counters.resident.Load()}
}

// worker is the mesh's handle on one rank process; conn, enc and dec exist
// once the process has dialed in.
type worker struct {
	cmd  *exec.Cmd
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// sentCounter counts what the coordinator writes to its workers.
type sentCounter struct{ io.Writer }

func (c sentCounter) Write(p []byte) (int, error) {
	counters.sentBytes.Add(int64(len(p)))
	return c.Writer.Write(p)
}

// Mesh is a set of resident rank workers: one OS process per rank, wired into
// a mesh once, running one rank job after another (see the package
// comment). Its methods are not safe for concurrent use.
type Mesh struct {
	workers []*worker
	// shipped[r] is the operator set rank r's worker keeps (Misses unset).
	shipped []Operators
	idleRSS int64
	ran     bool
	// broken is set unless the last job ended with every rank reporting an
	// outcome and no cancel sent: only then is nothing known to be in flight.
	broken bool
}

// Start spawns size workers by re-executing the current binary (they
// self-select via MaybeWorker), collects their mesh addresses, has them
// connect to each other and returns once every rank reports the mesh formed.
// A failure leaves no connection open and no process behind.
func Start(size int) (_ *Mesh, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("mprun: locating executable: %w", err)
	}
	// The coordinator listens only for the rendezvous below: an idle mesh
	// exposes no accepting port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("mprun: coordinator listen: %w", err)
	}
	defer ln.Close()

	m := &Mesh{shipped: make([]Operators, size)}
	counters.resident.Add(1)
	defer func() {
		if err != nil {
			m.Close()
		}
	}()
	for r := 0; r < size; r++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), envWorker+"=1", envCoord+"="+ln.Addr().String(),
			fmt.Sprintf("%s=%d", envRank, r), fmt.Sprintf("%s=%d", envSize, size))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("mprun: spawning rank %d: %w", r, err)
		}
		counters.spawns.Add(1)
		m.workers = append(m.workers, &worker{cmd: cmd})
	}

	// Rendezvous: each worker dials in and announces its rank and mesh
	// address; connection order is arbitrary, the hello sorts them out.
	deadline := time.Now().Add(startTimeout)
	ln.(*net.TCPListener).SetDeadline(deadline)
	addrs := make([]string, size)
	for i := 0; i < size; i++ {
		conn, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("mprun: waiting for workers (%d/%d registered): %w", i, size, err)
		}
		conn.SetDeadline(deadline)
		dec := gob.NewDecoder(conn)
		var hello helloMsg
		err = dec.Decode(&hello)
		if err == nil && (hello.Rank < 0 || hello.Rank >= size || m.workers[hello.Rank].conn != nil) {
			err = fmt.Errorf("unexpected rank %d", hello.Rank)
		}
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("mprun: worker hello: %w", err)
		}
		w := m.workers[hello.Rank]
		w.conn, w.enc, w.dec = conn, gob.NewEncoder(sentCounter{conn}), dec
		addrs[hello.Rank] = hello.MeshAddr
	}
	for r, w := range m.workers {
		if err := w.enc.Encode(coordMsg{Addrs: addrs}); err != nil {
			return nil, fmt.Errorf("mprun: sending rank %d the mesh addresses: %w", r, err)
		}
	}
	for r, w := range m.workers {
		var formed doneMsg
		if err := w.dec.Decode(&formed); err != nil {
			return nil, fmt.Errorf("mprun: rank %d died forming the mesh: %w", r, err)
		}
		if formed.Err != "" {
			return nil, fmt.Errorf("mprun: rank %d: %s", r, formed.Err)
		}
		w.conn.SetDeadline(time.Time{})
		m.idleRSS += residentBytes(w.cmd.Process.Pid)
	}
	if onStart != nil {
		onStart(m)
	}
	return m, nil
}

// onStart, when a test sets it, is called with every mesh that has formed.
var onStart func(*Mesh)

// residentBytes reads a process's resident set from /proc (0 without one).
func residentBytes(pid int) int64 {
	statm, _ := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	var size, resident int64
	fmt.Sscan(string(statm), &size, &resident)
	return resident * int64(os.Getpagesize())
}

// IdleRSS is the workers' summed resident set measured when the mesh had
// formed: what the processes cost beyond the operators they will be sent.
func (m *Mesh) IdleRSS() int64 { return m.idleRSS }

// RingBytes is the shared memory the workers exchange frames through: one
// mapping per pair of ranks, of which the idle resident set holds only the
// pages touched so far.
func (m *Mesh) RingBytes() int64 { return tcpmpi.MeshBytes(len(m.workers)) }

// Reusable reports whether the next job may run on this mesh; one whose last
// job failed on any rank, lost a worker or was canceled is only good to Close.
func (m *Mesh) Reusable() bool { return !m.broken }

// Close ends the workers: each connection is closed and each process killed
// (a no-op on one that has exited) and reaped.
func (m *Mesh) Close() {
	for _, w := range m.workers {
		if w.conn != nil {
			w.conn.Close()
		}
		w.cmd.Process.Kill()
		w.cmd.Wait()
	}
	counters.resident.Add(-1)
}

// wire returns what rank r is sent for job j. Operators its worker already
// keeps stay home: the spec says Held and carries only the traced misses.
func (m *Mesh) wire(r int, j *JobSpec) *JobSpec {
	if j == nil || j.Adopt == nil || j.Adopt.A == nil {
		return j
	}
	ops := *j.Adopt
	ops.Misses = nil
	if m.shipped[r] == ops {
		held := *j
		held.Adopt, held.Held = &Operators{Misses: j.Adopt.Misses}, true
		return &held
	}
	if m.shipped[r].A == nil {
		m.shipped[r] = ops
	}
	return j
}

// Run runs one job, jobs[r] on rank r, and gathers the per-rank outcomes.
// Canceling ctx broadcasts a cancel; ranks that wind down within killGrace
// still report partial outcomes (Canceled set), stragglers are killed. The
// error is that of a rank that died without reporting, wrapping
// simmpi.ErrRankLost — what its peers then report is a consequence — or else
// the lowest-rank failure.
func (m *Mesh) Run(ctx context.Context, jobs []*JobSpec) ([]*RankOutcome, error) {
	if len(jobs) != len(m.workers) || m.broken {
		return nil, fmt.Errorf("mprun: %d jobs for a mesh of %d ranks (reusable: %v)", len(jobs), len(m.workers), !m.broken)
	}
	if m.ran {
		counters.reuses.Add(1)
	}
	m.ran, m.broken = true, true
	outcomes := make([]*RankOutcome, len(jobs))
	errs := make([]error, len(jobs))
	reported := make(chan struct{}, len(jobs)) // one send per rank
	for r, w := range m.workers {
		// Each rank is sent its job and heard out on a goroutine of its own:
		// the first job carries the operators, and the workers decode side by
		// side instead of one after the other.
		go func(r int, w *worker, spec *JobSpec) {
			defer func() { reported <- struct{}{} }()
			var done doneMsg
			if err := w.enc.Encode(coordMsg{Job: spec}); err != nil {
				w.cmd.Process.Kill() // its peers must not wait for a rank that has no job
				errs[r] = fmt.Errorf("%w: mprun: sending rank %d its job: %v", simmpi.ErrRankLost, r, err)
			} else if err := w.dec.Decode(&done); err != nil {
				errs[r] = fmt.Errorf("%w: mprun: rank %d died without reporting: %v", simmpi.ErrRankLost, r, err)
			} else if outcomes[r] = done.Outcome; done.Err != "" {
				errs[r] = fmt.Errorf("mprun: rank %d: %s", r, done.Err)
			} else if done.Outcome == nil {
				errs[r] = fmt.Errorf("mprun: rank %d reported no outcome", r)
			}
		}(r, w, m.wire(r, jobs[r]))
	}
	cancel, kill := ctx.Done(), (<-chan time.Time)(nil)
	for left := len(jobs); left > 0; {
		select {
		case <-reported:
			left--
		case <-cancel:
			for _, w := range m.workers {
				w.enc.Encode(coordMsg{Cancel: true}) // a dead worker's decoder has failed already
			}
			cancel, kill = nil, time.After(killGrace)
		case <-kill:
			for _, w := range m.workers {
				w.cmd.Process.Kill() // the decoders fail once the processes are dead
			}
		}
	}

	var first error
	for _, err := range errs {
		if err != nil && (first == nil || errors.Is(err, simmpi.ErrRankLost) && !errors.Is(first, simmpi.ErrRankLost)) {
			first = err
		}
	}
	m.broken = kill != nil || first != nil
	return outcomes, first
}
