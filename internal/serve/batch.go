package serve

// Jobs: every admitted /solve runs as a job, one solve under one admission
// slot. A lone request is a job of one member that never enrols. A request
// batching may coalesce is a member of a coalescing job: the first such
// request with a batch key opens one as its leader, and every request with
// that key that arrives while the leader waits for a slot and then out the
// enrolment window joins it as a follower. The batch pays the halo and
// collective schedule once for all members — the per-RHS communication
// drops by the batch size — and each client still receives its own column's
// solution, bit-identical to a solo solve.
//
// Admission interaction: the whole job holds exactly ONE in-flight slot
// (the leader's). A follower never takes a slot or a queue place of its
// own, so coalescing strictly reduces admission pressure; it can never
// cause a 429 that the uncoalesced requests would not have hit.
//
// What differs between the two kinds, decided here and nowhere else: a lone
// job calls Prepared.Solve under its member's context, so it dies with its
// client, and its answer carries the modeled solve time and the trace. A
// coalescing job calls Prepared.SolveBatch at any k, detached under
// JobTimeout so that no member dies with another's client; its answers carry
// the batch size and the per-RHS share of its communication, and only
// coalescing jobs count in /metrics' batches_total and occupancy.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"fsaicomm"
)

// job is one solve under one admission slot. A coalescing job is enrolled
// in Server.open under its batch key from the moment its leader opens it
// until the enrolment window ends or the batch fills; rhs is append-only
// under the server's batch lock while it is, and frozen after. done is
// closed when the outcome fields below are final.
type job struct {
	key, bkey string        // prepared-cache key; batch key, "" for a lone job
	rhs       [][]float64   // one per member, the leader's first
	full      chan struct{} // coalescing jobs only: closed when the batch reaches BatchMax
	done      chan struct{}

	herr *httpError // non-nil: every member answers with it
	st   setupOutcome
	tot  *fsaicomm.SolveTotals
	cols []fsaicomm.ColResult // one per member
	lone *fsaicomm.Result     // a lone job's result, for what only a scalar solve reports
}

func (j *job) coalescing() bool { return j.full != nil }

// batchEligible reports whether a request may be coalesced: batching is
// configured, the solver is the CG family (only it has a batched loop), the
// CG variant has a batched loop, and the request wants no per-iteration
// trace (a trace is a single-solve artifact).
func (s *Server) batchEligible(solver fsaicomm.Solver, so fsaicomm.SolveOptions) bool {
	if s.cfg.BatchMax <= 1 || s.cfg.BatchWindow <= 0 || so.Trace {
		return false
	}
	if solver != fsaicomm.SolverCG {
		return false
	}
	return so.CGVariant == fsaicomm.CGClassic || so.CGVariant == fsaicomm.CGFused
}

// batchKey extends the prepared-cache key with the per-solve group, so only
// jobs whose batched solves are interchangeable ever merge: every field of
// fsaicomm.SolveOptions, Restart and Trace included although batched solves
// are CG-only and untraced today.
func batchKey(skey string, so fsaicomm.SolveOptions) string {
	return fmt.Sprintf("%s|%v", skey, so)
}

// joinable reports whether a job is enrolled under bkey, one a request can
// join without a slot of its own. A lone request (bkey "") never finds one.
func (s *Server) joinable(bkey string) bool {
	s.batMu.Lock()
	defer s.batMu.Unlock()
	return s.open[bkey] != nil
}

// enrol makes a member of rhs: a follower (idx > 0) of the job enrolled
// under bkey if there is one, else the leader (idx 0) of a new job, which is
// enrolled for followers to join when bkey is set.
func (s *Server) enrol(key, bkey string, rhs []float64) (j *job, idx int) {
	s.batMu.Lock()
	defer s.batMu.Unlock()
	if j = s.open[bkey]; j != nil {
		j.rhs = append(j.rhs, rhs)
		if len(j.rhs) >= s.cfg.BatchMax {
			delete(s.open, bkey) // full: freeze membership, wake the leader
			close(j.full)
		}
		return j, len(j.rhs) - 1
	}
	j = &job{key: key, bkey: bkey, rhs: [][]float64{rhs}, done: make(chan struct{})}
	if bkey != "" {
		j.full = make(chan struct{})
		s.open[bkey] = j
	}
	return j, 0
}

// freeze ends the job's enrolment: nobody joins it after this.
func (s *Server) freeze(j *job) {
	s.batMu.Lock()
	if s.open[j.bkey] == j {
		delete(s.open, j.bkey)
	}
	s.batMu.Unlock()
}

// finish freezes the job and publishes its outcome to every member. It is
// called once per job, by its leader.
func (s *Server) finish(j *job, herr *httpError) {
	s.freeze(j)
	j.herr = herr
	close(j.done)
}

// admit takes the job's one admission slot: a free slot at once, else a
// queue place while there is room, else the job is refused with 429. A
// leader whose client leaves while queued frees its place, and the job's
// other members are answered 503. On false the job is finished.
func (s *Server) admit(ctx context.Context, j *job) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	if s.atCapacity() {
		s.finish(j, s.refusal())
		return false
	}
	s.met.queued.Add(1)
	defer s.met.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		s.met.jobsCanceled.Add(1)
		s.finish(j, fail(http.StatusServiceUnavailable, "batch leader disconnected before the solve started"))
		return false
	}
}

// run is the work under the job's admission slot: a coalescing job first
// waits out its enrolment window; then the prepared system, the solve and
// its bookkeeping — latency, the cache's charge, the /metrics totals and
// every member's job counter. It returns the error each member answers
// with, nil when the job solved.
func (s *Server) run(ctx context.Context, fp string, a *fsaicomm.Matrix, opt fsaicomm.Options, so fsaicomm.SolveOptions, j *job) *httpError {
	s.met.jobsAccepted.Add(1)
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)
	what := "job"
	if j.coalescing() {
		timer := time.NewTimer(s.cfg.BatchWindow)
		select {
		case <-j.full:
		case <-timer.C:
		}
		timer.Stop()
		s.freeze(j)
		// Detached: no member's job dies with another member's client.
		ctx, what = context.Background(), "batch"
	}
	ctx, cancel := context.WithTimeout(ctx, s.cfg.JobTimeout)
	defer cancel()
	k := int64(len(j.rhs))
	t0 := time.Now()
	p, st, err := s.prepare(j.key, a, opt)
	if err != nil {
		s.met.jobsFailed.Add(k)
		return fail(http.StatusUnprocessableEntity, "preparing system: %v", err)
	}
	j.st = st
	if !st.hit && ctx.Err() != nil { // set-up is not interrupted; the system stays cached
		s.met.jobsCanceled.Add(k)
		return fail(http.StatusGatewayTimeout, "%s exceeded its %v deadline during set-up", what, s.cfg.JobTimeout)
	}
	iters, err := j.solve(ctx, p, so)
	s.met.latency.observe(time.Since(t0))
	s.recharge(j.key, p, so)
	if j.coalescing() {
		s.met.batchesTotal.Add(1)
		s.met.occupancy.observe(int(k))
	}
	if err != nil && (j.tot == nil || !errors.Is(err, fsaicomm.ErrCanceled)) {
		s.met.jobsFailed.Add(k)
		return fail(http.StatusUnprocessableEntity, "solve: %v", err)
	}
	s.met.addSolve(iters, j.tot)
	if err != nil { // canceled: the deadline, or a lone job's client leaving
		s.met.jobsCanceled.Add(k)
		return fail(http.StatusGatewayTimeout,
			"%s exceeded its %v deadline after %d iterations", what, s.cfg.JobTimeout, iters)
	}
	s.met.jobsCompleted.Add(k)
	s.logf("serve: solve %s ranks=%d k=%d iters=%d hit=%v setup=%v solve=%v",
		fp, j.tot.Ranks, k, iters, st.hit, st.setup, j.tot.SolveTime)
	return nil
}

// solve runs the job on p and keeps the members' columns and the totals:
// p.Solve for a lone job, p.SolveBatch at any k for a coalescing one. It
// returns the loop's iteration count.
func (j *job) solve(ctx context.Context, p *fsaicomm.Prepared, so fsaicomm.SolveOptions) (int, error) {
	if j.coalescing() {
		br, err := p.SolveBatch(ctx, j.rhs, so)
		if br == nil {
			return 0, err
		}
		j.cols, j.tot = br.Cols, &br.SolveTotals
		return br.Iterations, err
	}
	res, err := p.Solve(ctx, j.rhs[0], so)
	if res == nil {
		return 0, err
	}
	j.lone, j.tot = res, &res.SolveTotals
	j.cols = []fsaicomm.ColResult{{X: res.X, Iterations: res.Iterations, Converged: res.Converged, RelResidual: res.RelResidual}}
	return res.Iterations, err
}

// answer writes member idx's view of the finished job: its own column and
// the job's totals. A coalescing job's members also read the batch size and,
// as communication, their per-RHS share of its totals (the number the
// coalescing exists to shrink); a lone member reads the modeled solve time
// and the trace.
func (s *Server) answer(w http.ResponseWriter, fp string, j *job, idx int) {
	if j.herr != nil {
		s.writeFailure(w, j.herr, j.coalescing())
		return
	}
	col, t := &j.cols[idx], j.tot
	k := int64(len(j.cols))
	resp := &solveResponse{
		Matrix:      fp,
		CacheHit:    j.st.hit,
		Ranks:       t.Ranks,
		Iterations:  col.Iterations,
		Converged:   col.Converged,
		RelResidual: col.RelResidual,
		Refinements: t.Refinements,
		SetupMs:     float64(j.st.setup) / float64(time.Millisecond),
		SetupPhases: j.st.phases,
		PatternHit:  j.st.patternHit,
		SolveMs:     float64(t.SolveTime) / float64(time.Millisecond),
		CommBytes:   t.CommBytes / k,
		Collectives: t.CollectiveCalls / k,
		PctNNZ:      t.PctNNZIncrease,
		X:           col.X,
	}
	if j.coalescing() {
		resp.Batched, resp.Coalesced = int(k), idx > 0
	} else {
		resp.ModeledSec, resp.Trace = j.lone.ModeledSolveTime, j.lone.Trace
	}
	writeJSON(w, http.StatusOK, resp)
}

// refusal counts a 429 and returns it.
func (s *Server) refusal() *httpError {
	s.met.jobsRejected.Add(1)
	return fail(http.StatusTooManyRequests,
		"server at capacity (%d running, %d queued)", s.cfg.MaxInFlight, s.cfg.MaxQueue)
}

// writeFailure answers herr; a 429 carries the backlog-derived Retry-After,
// the one place the header is produced.
func (s *Server) writeFailure(w http.ResponseWriter, herr *httpError, coalescing bool) {
	if herr.code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(coalescing)))
	}
	writeErr(w, herr)
}
