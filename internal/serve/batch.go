package serve

// Job coalescing: /solve requests that share a prepared system and solver
// options (differing only in right-hand side) arriving within a short
// window are merged into one batched solve. The batch pays the halo and
// collective schedule once for all merged jobs — the per-RHS communication
// drops by the batch size — and each client still receives its own
// column's solution, bit-identical to a solo solve.
//
// Admission interaction: the whole batch holds exactly ONE in-flight slot
// (the leader's). A job that coalesces into an open batch never takes a
// slot or a queue place of its own, so coalescing strictly reduces
// admission pressure; it can never cause a 429 that the uncoalesced
// requests would not have hit.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"fsaicomm"
)

// openBatch is one coalescing batch: the leader's job plus every follower
// that joined during the enrollment window. rhs is append-only under the
// server's batch lock while the batch is enrolled in Server.open; once the
// leader (or the filling follower) removes it from the map, membership is
// frozen. done is closed by the leader when the outcome fields (res, herr,
// st) are final.
type openBatch struct {
	rhs  [][]float64
	full chan struct{} // closed when the batch reaches BatchMax
	done chan struct{} // closed when the outcome is ready

	res  *fsaicomm.BatchResult
	herr *httpError // non-nil: the whole batch failed with this status
	st   setupOutcome
}

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

// batchKey extends the prepared-cache key with every per-solve option, so
// only jobs whose batched solves are interchangeable ever merge. Restart
// rides along even though batched solves are CG-only today: the key must
// separate any two requests whose solves could differ.
func batchKey(skey string, so fsaicomm.SolveOptions) string {
	return fmt.Sprintf("%s|tol%g|mi%d|cg%d|re%d|arch%s|rre%d|tr%s|n%d|rpn%d|nna%v",
		skey, so.Tol, so.MaxIter, so.CGVariant, so.Restart, so.Arch, so.ResidualReplaceEvery, so.Transport,
		so.Nodes, so.RanksPerNode, so.NoNodeAggregation)
}

// solveBatched runs the coalescing /solve path. The caller has already
// resolved the matrix and the options and checked the right-hand side's
// shape.
func (s *Server) solveBatched(w http.ResponseWriter, r *http.Request, q *solveRequest, m *uploaded, opt fsaicomm.Options, so fsaicomm.SolveOptions) {
	a := m.a
	ranks := fsaicomm.AutoRanks(a, opt.Ranks)
	skey := setupKey(q.Matrix, m.pattern, opt, ranks)
	bkey := batchKey(skey, so)

	// A member needs its right-hand side in hand to enrol, so it is made
	// before admission here — but not for a request that would open a batch
	// only to be refused a slot: that one is refused now. (A joiner rides
	// the leader's slot and is never refused.)
	s.batMu.Lock()
	_, joining := s.open[bkey]
	s.batMu.Unlock()
	if !joining && s.atCapacity() {
		s.refuse(w, true)
		return
	}
	rhs, err := q.rightHandSide(m)
	if err != nil {
		writeErr(w, err)
		return
	}

	s.batMu.Lock()
	if ob := s.open[bkey]; ob != nil {
		// Join the open batch: no admission slot, no queue place — the
		// leader's slot covers the whole batch.
		idx := len(ob.rhs)
		ob.rhs = append(ob.rhs, rhs)
		if len(ob.rhs) >= s.cfg.BatchMax {
			delete(s.open, bkey) // full: freeze membership, wake the leader
			close(ob.full)
		}
		s.batMu.Unlock()
		s.met.jobsAccepted.Add(1)
		s.met.coalescedJobs.Add(1)
		select {
		case <-ob.done:
		case <-r.Context().Done():
			// The client is gone; the batch still solves this column and
			// discards it.
			s.met.jobsCanceled.Add(1)
			return
		}
		s.writeBatchColumn(w, q, ob, idx, true)
		return
	}
	ob := &openBatch{
		rhs:  [][]float64{rhs},
		full: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.open[bkey] = ob
	s.batMu.Unlock()

	// Leader: acquire one slot for the whole batch, queueing like any
	// scalar job. Followers keep joining while we wait — a job that was
	// about to queue instead rides this slot (never double-counted).
	acquired := false
	select {
	case s.sem <- struct{}{}:
		acquired = true
	default:
		if int(s.met.queued.Load()) < s.cfg.MaxQueue {
			s.met.queued.Add(1)
			select {
			case s.sem <- struct{}{}:
				s.met.queued.Add(-1)
				acquired = true
			case <-r.Context().Done():
				s.met.queued.Add(-1)
			}
		}
	}
	if !acquired {
		// Rejected (queue full) or the leader's client vanished while
		// queued: fail the whole batch — followers get the same answer
		// their own admission attempt would have produced.
		if r.Context().Err() != nil {
			s.met.jobsCanceled.Add(1)
			s.failBatch(bkey, ob, nil)
			return
		}
		s.failBatch(bkey, ob, s.refuse(w, true))
		return
	}
	// As on the scalar path, the slot is free again before any member's
	// answer is published or written.
	br, herr, st := func() (*fsaicomm.BatchResult, *httpError, setupOutcome) {
		defer func() { <-s.sem }()
		return s.runBatch(q, a, opt, so, skey, bkey, ob)
	}()
	s.finishBatch(ob, br, herr, st)
	s.writeBatchColumn(w, q, ob, 0, false)
}

// runBatch is the part of a batch that holds the leader's admission slot:
// the enrollment window, the prepared system and the batched solve. It
// returns the outcome every member will read.
func (s *Server) runBatch(q *solveRequest, a *fsaicomm.Matrix, opt fsaicomm.Options, so fsaicomm.SolveOptions, skey, bkey string, ob *openBatch) (*fsaicomm.BatchResult, *httpError, setupOutcome) {
	s.met.jobsAccepted.Add(1)
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)

	// Enrollment window: wait for followers until the batch fills or the
	// window elapses.
	timer := time.NewTimer(s.cfg.BatchWindow)
	select {
	case <-ob.full:
	case <-timer.C:
	}
	timer.Stop()
	s.batMu.Lock()
	if s.open[bkey] == ob {
		delete(s.open, bkey)
	}
	k := len(ob.rhs)
	s.batMu.Unlock()

	// The batch runs detached from the leader's connection: a follower's
	// job must not die because the leader's client hung up. JobTimeout
	// still bounds it.
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.JobTimeout)
	defer cancel()
	t0 := time.Now()
	p, st, err := s.prepare(skey, a, opt)
	if err != nil {
		s.met.jobsFailed.Add(int64(k))
		return nil, fail(http.StatusUnprocessableEntity, "preparing system: %v", err), setupOutcome{}
	}

	br, err := p.SolveBatch(ctx, ob.rhs, so)
	s.met.latency.observe(time.Since(t0))
	s.recharge(skey, p, so)
	s.met.batchesTotal.Add(1)
	s.met.occupancy.observe(k)
	if err != nil && !errors.Is(err, fsaicomm.ErrCanceled) {
		s.met.jobsFailed.Add(int64(k))
		return nil, fail(http.StatusUnprocessableEntity, "solve: %v", err), st
	}
	if br != nil {
		s.met.iterations.Add(int64(br.Iterations))
		s.met.commBytes.Add(br.CommBytes)
		s.met.intraNodeBytes.Add(br.IntraNodeBytes)
		s.met.intraNodeMessages.Add(br.IntraNodeMessages)
		s.met.interNodeBytes.Add(br.InterNodeBytes)
		s.met.interNodeMessages.Add(br.InterNodeMessages)
		s.met.collectiveCalls.Add(br.CollectiveCalls)
		s.met.collectiveBytes.Add(br.CollectiveBytes)
		s.met.addWaits(br.Waits)
	}
	if err != nil { // JobTimeout: the batch was cut off collectively
		s.met.jobsCanceled.Add(int64(k))
		return nil, fail(http.StatusGatewayTimeout,
			"batch exceeded its %v deadline after %d iterations", s.cfg.JobTimeout, br.Iterations), st
	}
	s.met.jobsCompleted.Add(int64(k))
	s.logf("serve: batch %s ranks=%d k=%d iters=%d hit=%v setup=%v solve=%v",
		q.Matrix, br.Ranks, k, br.Iterations, st.hit, st.setup, br.SolveTime)
	return br, nil, st
}

// failBatch aborts a batch before it solved: enrollment closes, and every
// member (the leader's writer runs separately) observes herr — or, when
// herr is nil, a 503 placeholder for a leader that vanished while queued.
func (s *Server) failBatch(bkey string, ob *openBatch, herr *httpError) {
	if herr == nil {
		herr = fail(http.StatusServiceUnavailable, "batch leader disconnected before the solve started")
	}
	s.batMu.Lock()
	if s.open[bkey] == ob {
		delete(s.open, bkey)
	}
	s.batMu.Unlock()
	s.finishBatch(ob, nil, herr, setupOutcome{})
}

// finishBatch publishes the batch outcome and wakes every waiter. Must be
// called exactly once, after membership is frozen.
func (s *Server) finishBatch(ob *openBatch, res *fsaicomm.BatchResult, herr *httpError, st setupOutcome) {
	ob.res = res
	ob.herr = herr
	ob.st = st
	close(ob.done)
}

// writeBatchColumn renders one member's view of a finished batch: its own
// solution column and per-column stats, plus the batch-level occupancy and
// the per-RHS amortized communication (the batch totals divided by the
// batch size — the number the coalescing exists to shrink).
func (s *Server) writeBatchColumn(w http.ResponseWriter, q *solveRequest, ob *openBatch, idx int, coalesced bool) {
	if ob.herr != nil {
		if ob.herr.code == http.StatusTooManyRequests {
			s.setRetryAfter(w, true)
		}
		writeErr(w, ob.herr)
		return
	}
	res := ob.res
	col := &res.Cols[idx]
	k := int64(len(res.Cols))
	writeJSON(w, http.StatusOK, solveResponse{
		Matrix:      q.Matrix,
		CacheHit:    ob.st.hit,
		Ranks:       res.Ranks,
		Iterations:  col.Iterations,
		Converged:   col.Converged,
		RelResidual: col.RelResidual,
		Refinements: res.Refinements,
		SetupMs:     float64(ob.st.setup) / float64(time.Millisecond),
		SetupPhases: ob.st.phases,
		PatternHit:  ob.st.patternHit,
		SolveMs:     float64(res.SolveTime) / float64(time.Millisecond),
		CommBytes:   res.CommBytes / k,
		Collectives: res.CollectiveCalls / k,
		PctNNZ:      res.PctNNZIncrease,
		X:           col.X,
		Batched:     int(k),
		Coalesced:   coalesced,
	})
}
