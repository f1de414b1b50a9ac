package mprun

import (
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"os"
	"strconv"
	"time"

	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/tcpmpi"
)

// Worker environment. Launch spawns the current executable with these set;
// MaybeWorker intercepts the process before it reaches normal main/test
// logic, so any binary (fsairank, fsaibench, fsaiserve, a test binary) can
// self-host its rank workers.
const (
	envWorker = "FSAICOMM_MP_WORKER"
	envCoord  = "FSAICOMM_MP_COORD"
	envRank   = "FSAICOMM_MP_RANK"
	envSize   = "FSAICOMM_MP_SIZE"
)

// Control-channel messages, gob-streamed over the worker's coordinator
// connection (worker dials, launcher accepts).
type helloMsg struct {
	Rank     int
	MeshAddr string
}

type coordMsg struct {
	// Start carries the job; exactly the first message has it set.
	Start *startMsg
	// Cancel asks the worker to cancel its job context; the worker still
	// reports a final result (with partial stats) before exiting.
	Cancel bool
}

type startMsg struct {
	Addrs   []string
	Timeout time.Duration
	Job     *JobSpec
}

type doneMsg struct {
	Outcome *RankOutcome
	Err     string
}

// MaybeWorker turns the current process into a rank worker if the worker
// environment is set, never returning in that case. Call it first thing in
// main() (and in TestMain for test binaries that launch multi-process
// solves); it is a no-op in ordinary processes.
func MaybeWorker() {
	if os.Getenv(envWorker) != "1" {
		return
	}
	if err := workerMain(); err != nil {
		fmt.Fprintf(os.Stderr, "fsairank worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func workerMain() error {
	rank, err := strconv.Atoi(os.Getenv(envRank))
	if err != nil {
		return fmt.Errorf("bad %s: %w", envRank, err)
	}
	size, err := strconv.Atoi(os.Getenv(envSize))
	if err != nil {
		return fmt.Errorf("bad %s: %w", envSize, err)
	}
	coord, err := net.DialTimeout("tcp", os.Getenv(envCoord), 30*time.Second)
	if err != nil {
		return fmt.Errorf("rank %d dialing coordinator: %w", rank, err)
	}
	defer coord.Close()
	enc := gob.NewEncoder(coord)
	dec := gob.NewDecoder(coord)

	// Open the mesh listener before registering, so every published address
	// is live by the time any peer dials it.
	ln, err := tcpmpi.ListenTCP()
	if err != nil {
		return fmt.Errorf("rank %d mesh listen: %w", rank, err)
	}
	if err := enc.Encode(helloMsg{Rank: rank, MeshAddr: ln.Addr().String()}); err != nil {
		return fmt.Errorf("rank %d hello: %w", rank, err)
	}
	var first coordMsg
	if err := dec.Decode(&first); err != nil {
		return fmt.Errorf("rank %d waiting for job: %w", rank, err)
	}
	if first.Start == nil || first.Start.Job == nil {
		return fmt.Errorf("rank %d: first coordinator message carries no job", rank)
	}
	start := first.Start

	// The job context is canceled by a coordinator cancel message — or by
	// the coordinator connection dying, which means the launcher process is
	// gone and finishing the solve would report to nobody.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for {
			var m coordMsg
			if err := dec.Decode(&m); err != nil {
				cancel()
				return
			}
			if m.Cancel {
				cancel()
			}
		}
	}()

	ep, err := tcpmpi.Connect(rank, ln, start.Addrs, tcpmpi.Config{Timeout: start.Timeout})
	if err != nil {
		enc.Encode(doneMsg{Err: err.Error()})
		return err
	}
	defer ep.Close()
	// Each worker meters its own rank's traffic; the launcher merges the
	// per-rank outcomes. The meter carries the job's declared topology so
	// the intra/inter split is identical to the in-process backend's.
	topo, err := start.Job.Topology(size)
	if err != nil {
		enc.Encode(doneMsg{Err: err.Error()})
		return err
	}
	c := simmpi.NewComm(ep, simmpi.NewMeterTopo(size, topo), start.Timeout)
	out, jobErr := RunJob(ctx, c, start.Job, nil)
	if jobErr == nil {
		// The job's final iteration may have posted nonblocking sends whose
		// chain goroutines are still flushing; exiting the process before
		// they reach the wire would turn a peer's matching receive into a
		// spurious rank-lost failure.
		c.Quiesce()
	}
	msg := doneMsg{Outcome: out}
	if jobErr != nil {
		msg.Err = jobErr.Error()
	}
	if err := enc.Encode(msg); err != nil {
		return fmt.Errorf("rank %d reporting result: %w", rank, err)
	}
	return jobErr
}
