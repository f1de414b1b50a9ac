package mprun

import (
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"

	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/tcpmpi"
)

// Worker environment. Start spawns the current executable with these set;
// MaybeWorker intercepts the process before it reaches normal main/test
// logic, so any binary (fsairank, fsaiserve, a test binary) can
// self-host its rank workers.
const (
	envWorker = "FSAICOMM_MP_WORKER"
	envCoord  = "FSAICOMM_MP_COORD"
	envRank   = "FSAICOMM_MP_RANK"
	envSize   = "FSAICOMM_MP_SIZE"
)

// Control-channel messages, gob-streamed over the worker's coordinator
// connection (worker dials, Start accepts). A worker says hello, is sent the
// mesh addresses, answers with a doneMsg once connected to its peers (Err set
// if it could not), and from then on answers every job with one doneMsg.
type helloMsg struct {
	Rank     int
	MeshAddr string
}

type coordMsg struct {
	// Addrs lists every rank's mesh address; the first message carries it.
	Addrs []string
	// Job is the next job to run.
	Job *JobSpec
	// Cancel asks the worker to cancel the running job's context; the worker
	// still reports an outcome (with partial stats).
	Cancel bool
}

type doneMsg struct {
	Outcome *RankOutcome
	Err     string
}

// MaybeWorker turns the current process into a rank worker if the worker
// environment is set, never returning in that case. Call it first thing in
// main() (and in TestMain for test binaries that run multi-process solves);
// it is a no-op in ordinary processes.
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

// job is a job on its way to the rank loop, with the context a cancel ends.
type job struct {
	ctx  context.Context
	spec *JobSpec
}

func workerMain() error {
	rank, err := strconv.Atoi(os.Getenv(envRank))
	if err != nil {
		return fmt.Errorf("bad %s: %w", envRank, err)
	}
	size, err := strconv.Atoi(os.Getenv(envSize))
	if err != nil || size < 1 {
		return fmt.Errorf("bad %s %q: %v", envSize, os.Getenv(envSize), err)
	}
	// A rank gets its share of the host, as an MPI launcher's binding would
	// give it: size full-width runtimes on one host spend their time waking
	// spinning threads that steal the peers' cores, and a Workers-parallel
	// build inside a rank would oversubscribe them.
	runtime.GOMAXPROCS(max(1, runtime.GOMAXPROCS(0)/size))

	coord, err := net.DialTimeout("tcp", os.Getenv(envCoord), startTimeout)
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
	defer ln.Close() // Connect closes it sooner
	if err := enc.Encode(helloMsg{Rank: rank, MeshAddr: ln.Addr().String()}); err != nil {
		return fmt.Errorf("rank %d hello: %w", rank, err)
	}
	var first coordMsg
	if err := dec.Decode(&first); err != nil {
		return fmt.Errorf("rank %d waiting for the mesh addresses: %w", rank, err)
	}
	ep, err := tcpmpi.Connect(rank, ln, first.Addrs, tcpmpi.Config{Timeout: opTimeout})
	if err != nil {
		enc.Encode(doneMsg{Err: err.Error()})
		return err
	}
	defer ep.Close()
	if err := enc.Encode(doneMsg{}); err != nil {
		return fmt.Errorf("rank %d reporting the mesh formed: %w", rank, err)
	}

	// The control channel has its own reader so that a cancel reaches a
	// running job. It ends, closing jobs, when the coordinator connection
	// does (Close, or the coordinating process gone): an idle worker then
	// exits, a busy one is canceled first — it would report to nobody.
	jobs := make(chan job)
	go func() {
		defer close(jobs)
		cancel := func() {}
		for {
			var m coordMsg
			if err := dec.Decode(&m); err != nil {
				cancel()
				return
			}
			// Every message ends the context in force: a Cancel that of the
			// running job, a Job that of the one before, which has reported.
			cancel()
			if m.Job != nil {
				var ctx context.Context
				ctx, cancel = context.WithCancel(context.Background())
				jobs <- job{ctx, m.Job}
			}
		}
	}()

	// held are the operators of the first adopting job, which later jobs
	// that say Held run on.
	var held *Operators
	for j := range jobs {
		if !j.spec.Held {
			j.spec.Adopt.indexRuns()
		}
		if j.spec.Held && j.spec.Adopt != nil && held != nil {
			ops := *held
			ops.Misses = j.spec.Adopt.Misses
			j.spec.Adopt = &ops
		} else if j.spec.Adopt != nil && held == nil {
			held = j.spec.Adopt
		}
		out, jobErr := runOn(j.ctx, ep, j.spec)
		msg := doneMsg{Outcome: out}
		if jobErr != nil {
			msg.Err = jobErr.Error()
		}
		if err := enc.Encode(msg); err != nil {
			return fmt.Errorf("rank %d reporting result: %w", rank, err)
		}
		if jobErr != nil {
			// The mesh may hold half a job's traffic; leaving tells peers and
			// coordinator that this worker is not to be reused.
			return jobErr
		}
	}
	return nil
}

// runOn runs one job over a fresh communicator and meter on the long-lived
// endpoint, so no count and no nonblocking chain carries over from the job
// before. A panic — how the communicator reports a lost peer — comes back as
// the job's error.
func runOn(ctx context.Context, ep *tcpmpi.Endpoint, spec *JobSpec) (out *RankOutcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, fmt.Errorf("rank %d panicked: %v", ep.Rank(), p)
		}
	}()
	// Each worker meters its own rank's traffic under the job's declared
	// topology, so the intra/inter split matches the in-process backend's.
	topo, err := spec.Topology(ep.Size())
	if err != nil {
		return nil, err
	}
	c := simmpi.NewComm(ep, simmpi.NewMeterTopo(ep.Size(), topo), opTimeout)
	if out, err = RunJob(ctx, c, spec, nil); err == nil {
		// The last iteration may have posted nonblocking sends whose chains
		// are still flushing; the next job's traffic must not overtake them.
		c.Quiesce()
	}
	return out, err
}
