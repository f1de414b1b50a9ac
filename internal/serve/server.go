// Package serve implements the solver-as-a-service layer: an HTTP handler
// that accepts matrix uploads, fingerprints them, and runs distributed FSAI
// + CG solve jobs against a content-addressed cache of prepared systems
// (partition + halo plans + factors). Repeated solves of the same matrix
// under the same setup options skip the whole setup phase and pay only the
// Krylov loop. The package is stdlib-only and wraps the public fsaicomm
// facade; cmd/fsaiserve turns it into a daemon.
//
// Production concerns handled here rather than in the solver:
//
//   - Admission control: at most MaxInFlight concurrent solves, at most
//     MaxQueue waiting; beyond that requests get 429 immediately, so an
//     overloaded server degrades by refusing, not by thrashing.
//   - Deadlines and cancellation: every job runs under JobTimeout, a lone
//     job also under its client's connection; cancellation propagates into
//     the distributed CG loop, which stops collectively at an iteration
//     boundary.
//   - Caching: two byte-budget LRUs (uploaded matrices by content
//     fingerprint, prepared systems by fingerprint + canonical setup
//     options) with singleflight build deduplication.
//   - Observability: /healthz for liveness and /metrics for counters,
//     cache occupancy, aggregate communication totals from the simulated
//     runtime, and a solve-latency histogram.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"fsaicomm"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/testsets"
)

// Config sizes the server. The zero value serves with sensible defaults.
type Config struct {
	// MaxInFlight caps concurrently running solve jobs. Default 4.
	MaxInFlight int
	// MaxQueue caps jobs waiting for a slot; beyond it requests are
	// rejected with 429. Default 2·MaxInFlight; negative means no queue
	// (reject as soon as every slot is busy).
	MaxQueue int
	// CacheBytes budgets the prepared-system cache. Default 256 MiB.
	CacheBytes int64
	// MatrixCacheBytes budgets the uploaded-matrix cache. Default 256 MiB.
	MatrixCacheBytes int64
	// JobTimeout bounds one solve job (setup + Krylov loop). Default 120s.
	// A set-up in progress is not interrupted: a job whose set-up outlasts
	// the deadline answers 504 when the set-up ends, and the prepared system
	// stays cached for the next request, whose solve the deadline bounds.
	JobTimeout time.Duration
	// MaxBodyBytes bounds request bodies (matrix uploads dominate).
	// Default 64 MiB.
	MaxBodyBytes int64
	// Logf, when set, receives one line per notable event (job done,
	// rejection, shutdown). Silent by default.
	Logf func(format string, args ...any)
	// DefaultTransport is the rank backend for requests that do not pick
	// one: "sim" (goroutine ranks, the default) or "tcp" (one OS process
	// per rank; the serving binary's main must call mprun.MaybeWorker).
	// Both produce bit-identical results, so the prepared cache is shared
	// across transports.
	DefaultTransport string
	// BatchMax and BatchWindow enable job coalescing (see batch.go): /solve
	// requests sharing a prepared system and solver options that arrive
	// within BatchWindow of the first are merged — up to BatchMax of them —
	// into one batched multi-RHS solve holding a single admission slot.
	// Coalescing is off unless BatchMax > 1 AND BatchWindow > 0 (the
	// defaults). The merged batch delays its leader by up to BatchWindow,
	// so keep the window well under typical solve time.
	BatchMax    int
	BatchWindow time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	} else if c.MaxQueue == 0 {
		c.MaxQueue = 2 * c.MaxInFlight
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MatrixCacheBytes == 0 {
		c.MatrixCacheBytes = 256 << 20
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 120 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	return c
}

// Server is the HTTP solver service. Create with New, mount anywhere (it
// implements http.Handler), stop with Shutdown.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	met      *metrics
	matrices *lru // fingerprint -> *uploaded
	prepared *lru // fingerprint + setup options -> *fsaicomm.Prepared
	sem      chan struct{}

	// batMu guards open, the enrolling coalescing jobs by batch key.
	batMu sync.Mutex
	open  map[string]*job

	mu       sync.Mutex
	draining bool
	jobs     sync.WaitGroup
}

// New builds a server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	met := newMetrics()
	// A prepared system that has solved over "tcp" owns worker processes;
	// whichever way it leaves the cache, they go with it.
	closePrepared := func(val any) { val.(*fsaicomm.Prepared).Close() }
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		met:      met,
		matrices: newLRU(cfg.MatrixCacheBytes, &met.matrixHits, &met.matrixMisses, &met.matrixEvictions, nil),
		prepared: newLRU(cfg.CacheBytes, &met.preparedHits, &met.preparedMisses, &met.preparedEvictions, closePrepared),
		sem:      make(chan struct{}, cfg.MaxInFlight),
		open:     make(map[string]*job),
	}
	s.mux.HandleFunc("POST /matrix", s.handleMatrix)
	s.mux.HandleFunc("POST /solve", s.handleSolve)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Shutdown drains the server: new solve jobs are refused with 503 and the
// call blocks until every accepted job has finished or ctx expires; then the
// prepared cache is emptied, which ends the rank worker processes its systems
// keep (a job still running when ctx expired ends its own on its way out).
// It does not close listeners — pair it with http.Server.Shutdown, which
// stops accepting connections while this stops accepting work.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	defer s.prepared.Clear()
	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.logf("serve: drained")
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
}

// beginJob admits one solve job, returning false when the server is
// draining. The caller must call the returned release exactly once.
func (s *Server) beginJob() (release func(), ok bool) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, false
	}
	s.jobs.Add(1)
	s.mu.Unlock()
	return func() { s.jobs.Done() }, true
}

// retryAfterSeconds estimates how long a rejected client should wait before
// retrying, instead of the classic hardcoded "1" that synchronizes every
// rejected client into a retry stampede one second later. The estimate is
// the backlog the client would sit behind — queued plus in-flight jobs,
// spread over the MaxInFlight slots — times the recent mean solve latency
// from the histogram (one second before any data exists), plus the batch
// enrollment window when the rejected request could have coalesced (a
// retry cannot possibly be served sooner than the window the batch holds
// its leader for). Clamped to [1, 60] seconds.
func (s *Server) retryAfterSeconds(batched bool) int {
	mean := time.Second
	if n := s.met.latency.count.Load(); n > 0 {
		mean = time.Duration(s.met.latency.sumUs.Load()/n) * time.Microsecond
	}
	backlog := s.met.queued.Load() + s.met.inFlight.Load()
	wait := mean * time.Duration(backlog/int64(s.cfg.MaxInFlight)+1)
	if batched {
		wait += s.cfg.BatchWindow
	}
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func fail(code int, format string, args ...any) *httpError {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...)}
}

// writeJSON answers with v encoded compactly — a solve response is one
// 50,000-number array, and indenting it costs as much again as encoding it —
// from a buffer, so the length is declared and an encoding failure can still
// become a 500.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": fmt.Sprintf("encoding response: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body) // the client is gone if this fails
}

// badBody answers an unreadable body: 413 naming the limit if it was cut off there, else 400.
func badBody(what string, err error) *httpError {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return fail(http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", tooLarge.Limit)
	}
	return fail(http.StatusBadRequest, "%s: %v", what, err)
}

func writeErr(w http.ResponseWriter, err error) {
	var he *httpError
	if !errors.As(err, &he) {
		he = fail(http.StatusInternalServerError, "%v", err)
	}
	writeJSON(w, he.code, map[string]string{"error": he.msg})
}

// matrixResponse answers POST /matrix.
type matrixResponse struct {
	Matrix string `json:"matrix"` // content fingerprint; the /solve handle
	Rows   int    `json:"rows"`
	NNZ    int    `json:"nnz"`
	Cached bool   `json:"cached"` // body was already known under this fingerprint
}

// sizedBody is a request body that gives ReadMatrixMarket its announced
// Content-Length as the size of the buffer to read it into, in place of a
// buffer that doubles as it fills. It is a hint only: a body that is
// shorter or longer reads as it would without it.
type sizedBody struct {
	io.Reader
	n int
}

// Len is the body's announced length.
func (b sizedBody) Len() int { return b.n }

// handleMatrix ingests a matrix — a MatrixMarket body, or a named catalog
// matrix via ?gen=<name> with an empty body — fingerprints it and stores it
// in the matrix cache. Re-uploading identical content is idempotent: same
// fingerprint, refreshed LRU position.
func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	var a *fsaicomm.Matrix
	if gen := r.URL.Query().Get("gen"); gen != "" {
		spec, err := testsets.ByName(gen)
		if err != nil {
			writeErr(w, fail(http.StatusBadRequest, "unknown catalog matrix %q", gen))
			return
		}
		a = spec.Generate()
	} else {
		body := io.Reader(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if n := r.ContentLength; n > 0 && n <= s.cfg.MaxBodyBytes {
			body = sizedBody{body, int(n)}
		}
		var err error
		a, err = fsaicomm.ReadMatrixMarket(body)
		if err != nil {
			writeErr(w, badBody("parsing MatrixMarket body", err))
			return
		}
	}
	if a.Rows != a.Cols {
		writeErr(w, fail(http.StatusBadRequest, "matrix is %dx%d, want square", a.Rows, a.Cols))
		return
	}
	if err := a.Validate(); err != nil {
		writeErr(w, fail(http.StatusBadRequest, "invalid matrix: %v", err))
		return
	}
	// Reject non-finite values before the matrix reaches the cache: a NaN
	// poisons every dot product, so a cached NaN matrix would fail every
	// later solve against its fingerprint with no hint at upload time.
	if !a.IsFinite() {
		writeErr(w, fail(http.StatusBadRequest, "matrix contains NaN or Inf values"))
		return
	}
	fp, pattern := a.FingerprintWithPattern()
	_, known := s.matrices.Get(fp)
	if !known {
		s.matrices.Add(fp, &uploaded{a: a, maxNorm: a.MaxNorm(), pattern: pattern}, matrixBytes(a))
	}
	s.logf("serve: matrix %s ingested (%dx%d, %d nnz, cached=%v)", fp, a.Rows, a.Cols, a.NNZ(), known)
	writeJSON(w, http.StatusOK, matrixResponse{Matrix: fp, Rows: a.Rows, NNZ: a.NNZ(), Cached: known})
}

// uploaded is a matrix-cache entry: the matrix, its max-norm, taken once at
// upload so that a seeded right-hand side (which is scaled to it) does not
// rescan every stored value per request, and the digest of its sparsity
// pattern, which the fingerprint's pass yields on its way.
type uploaded struct {
	a       *fsaicomm.Matrix
	maxNorm float64
	pattern string
}

// generateRHS draws the seeded right-hand side; a variable so that a test
// can count the calls.
var generateRHS = matgen.RandomRHS

// rightHandSide produces the request's right-hand side once its shape has
// been checked: the explicit values after a scan for NaN/Inf, or the seeded
// draw fsaicomm.GenerateRHS would return for this matrix (omitting both
// means seed 1).
func (q *solveRequest) rightHandSide(m *uploaded) ([]float64, error) {
	if q.RHS == nil {
		seed := q.RHSSeed
		if seed == 0 {
			seed = 1
		}
		return generateRHS(m.a.Rows, seed, m.maxNorm), nil
	}
	for i, v := range q.RHS {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fail(http.StatusBadRequest, "rhs[%d] is not finite", i)
		}
	}
	return q.RHS, nil
}

// atCapacity reports whether a request arriving now would be refused: every
// slot busy and the queue full.
func (s *Server) atCapacity() bool {
	return len(s.sem) == cap(s.sem) && int(s.met.queued.Load()) >= s.cfg.MaxQueue
}

func matrixBytes(a *fsaicomm.Matrix) int64 {
	return 8 * int64(len(a.RowPtr)+len(a.ColIdx)+len(a.Val))
}

// solveRequest is the POST /solve body. Zero values mean defaults, exactly
// as in fsaicomm.Options; field validation is shared with the library
// (Options.Validate), so the API cannot accept what the library would
// reject.
type solveRequest struct {
	Matrix string `json:"matrix"` // fingerprint from POST /matrix

	// Right-hand side: explicit values, or a deterministic seed (the
	// paper's normalized random RHS). Omitting both means seed 1.
	RHS     []float64 `json:"rhs,omitempty"`
	RHSSeed int64     `json:"rhs_seed,omitempty"`

	// Setup options (cache-key relevant).
	Method        string  `json:"method,omitempty"` // fsai | fsaie | fsaie-comm | spai
	Filter        float64 `json:"filter,omitempty"`
	Dynamic       bool    `json:"dynamic,omitempty"`
	LineBytes     int     `json:"line_bytes,omitempty"`
	PatternLevel  int     `json:"pattern_level,omitempty"`
	Threshold     float64 `json:"threshold,omitempty"`
	Ranks         int     `json:"ranks,omitempty"`
	Partitioner   string  `json:"partitioner,omitempty"`
	PartitionSeed int64   `json:"partition_seed,omitempty"`
	Workers       int     `json:"workers,omitempty"`
	// Solver selects "cg" (default; the FSAI family) or "gmres" (restarted
	// GMRES; requires method "spai"). Setup-level: the solver decides which
	// preconditioner kind the prepared cache holds. The SPAI knobs shape the
	// adaptive inverse (method "spai" only; see fsaicomm.Options).
	Solver      string  `json:"solver,omitempty"`
	SPAISteps   int     `json:"spai_steps,omitempty"`
	SPAIAdd     int     `json:"spai_add,omitempty"`
	SPAIEpsilon float64 `json:"spai_epsilon,omitempty"`
	// Precision selects fp64 (default) or fp32 — float32 factors with FP64
	// iterative refinement. Setup-level: part of the prepared-cache key.
	Precision string `json:"precision,omitempty"`

	// Per-solve options.
	Tol       float64 `json:"tol,omitempty"`
	MaxIter   int     `json:"max_iter,omitempty"`
	Restart   int     `json:"restart,omitempty"` // GMRES restart length (0 = 30)
	CG        string  `json:"cg,omitempty"`      // classic | fused | pipelined
	Arch      string  `json:"arch,omitempty"`
	Trace     bool    `json:"trace,omitempty"`
	Transport string  `json:"transport,omitempty"` // sim | tcp (rank backend; empty = server default)
}

// decodeSolve reads a /solve body into the request and the facade options it
// asks for. Whatever the bytes, it returns either options the facade's
// validator accepts or a 4xx error (FuzzSolveRequest).
func decodeSolve(body io.Reader) (*solveRequest, fsaicomm.Options, fsaicomm.SolveOptions, error) {
	var q solveRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		return nil, fsaicomm.Options{}, fsaicomm.SolveOptions{}, badBody("decoding request", err)
	}
	opt, so, err := q.options()
	return &q, opt, so, err
}

// options maps the request onto the facade's option types.
func (q *solveRequest) options() (fsaicomm.Options, fsaicomm.SolveOptions, error) {
	method, err := fsaicomm.ParseMethod(q.Method)
	if err != nil {
		return fsaicomm.Options{}, fsaicomm.SolveOptions{}, fail(http.StatusBadRequest, "%v", err)
	}
	solver, err := fsaicomm.ParseSolver(q.Solver)
	if err != nil {
		return fsaicomm.Options{}, fsaicomm.SolveOptions{}, fail(http.StatusBadRequest, "%v", err)
	}
	if solver == fsaicomm.SolverGMRES && q.Method == "" {
		// GMRES implies SPAI; an unspecified method follows the solver
		// instead of the FSAIEComm default (which Validate would reject).
		method = fsaicomm.SPAI
	}
	var variant fsaicomm.CGVariant
	if q.CG != "" {
		if variant, err = fsaicomm.ParseCGVariant(q.CG); err != nil {
			return fsaicomm.Options{}, fsaicomm.SolveOptions{}, fail(http.StatusBadRequest, "%v", err)
		}
	}
	prec, err := fsaicomm.ParsePrecision(q.Precision)
	if err != nil {
		return fsaicomm.Options{}, fsaicomm.SolveOptions{}, fail(http.StatusBadRequest, "%v", err)
	}
	strategy := fsaicomm.StaticFilter
	if q.Dynamic {
		strategy = fsaicomm.DynamicFilter
	}
	opt := fsaicomm.Options{
		Method:        method,
		Solver:        solver,
		Filter:        q.Filter,
		Strategy:      strategy,
		LineBytes:     q.LineBytes,
		PatternLevel:  q.PatternLevel,
		Threshold:     q.Threshold,
		Ranks:         q.Ranks,
		Partitioner:   q.Partitioner,
		PartitionSeed: q.PartitionSeed,
		Workers:       q.Workers,
		Precision:     prec,
		SPAISteps:     q.SPAISteps,
		SPAIAdd:       q.SPAIAdd,
		SPAIEpsilon:   q.SPAIEpsilon,
		Tol:           q.Tol,
		MaxIter:       q.MaxIter,
		Restart:       q.Restart,
		CGVariant:     variant,
		Arch:          q.Arch,
		Trace:         q.Trace,
		Transport:     q.Transport,
	}
	if err := opt.Validate(); err != nil {
		return fsaicomm.Options{}, fsaicomm.SolveOptions{}, fail(http.StatusBadRequest, "%v", err)
	}
	return opt, opt.SolveOptions(), nil
}

// setupKey is the prepared-cache key: content fingerprint, pattern digest,
// and the canonical set-up group (fsaicomm.Options.Canonical), so spellings
// of the same set-up share an entry ("" and "multilevel", 0 and 64-byte
// lines, automatic and explicit equal rank counts). What leaves the factors
// alone is not in it: Workers parallelizes the build without changing its
// result, and no per-solve field — Transport included — changes what
// Prepare builds. Everything after the fingerprint is what two
// systems must share for one to be refactored from the other (donorSuffix).
func setupKey(fp, pattern string, setup fsaicomm.Options) string {
	return fmt.Sprintf("%s|%s|%v", fp, pattern, setup)
}

// donorSuffix is the part of a prepared-cache key behind the fingerprint:
// pattern digest and setup options. A cached system whose key ends in it
// was analysed for the same pattern under the same options.
func donorSuffix(key string) string { return key[strings.IndexByte(key, '|'):] }

// solveResponse answers POST /solve. X round-trips float64s bit-exactly
// through JSON (encoding/json emits shortest-form decimals), so two cached
// solves of the same job compare bit-identical on the client side too.
type solveResponse struct {
	Matrix      string    `json:"matrix"`
	CacheHit    bool      `json:"cache_hit"` // setup came from the prepared cache
	Ranks       int       `json:"ranks"`
	Iterations  int       `json:"iterations"`
	Converged   bool      `json:"converged"`
	RelResidual float64   `json:"rel_residual"`
	Refinements int       `json:"refinements,omitempty"` // FP64 refinement steps (fp32 solves)
	SetupMs     float64   `json:"setup_ms"`              // 0 on cache hits
	SolveMs     float64   `json:"solve_ms"`
	ModeledSec  float64   `json:"modeled_solve_sec"`
	CommBytes   int64     `json:"comm_bytes"`
	Collectives int64     `json:"collective_calls"`
	PctNNZ      float64   `json:"pct_nnz_increase"`
	X           []float64 `json:"x"`

	// Batched reports how many requests the coalescing job solved together
	// (0 for a lone job); Coalesced marks a follower, a request that rode
	// another's batch instead of opening its own. For coalesced requests
	// CommBytes and Collectives are the per-RHS amortized shares of the
	// batch totals, and ModeledSec is not computed.
	Batched   int  `json:"batched,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`

	Trace *fsaicomm.IterTrace `json:"trace,omitempty"`

	// SetupPhases says where setup_ms went; present only on the response
	// that paid for the set-up (a cache miss), so cached responses keep
	// their shape and size. PatternHit marks a miss whose set-up ran on the
	// analysis of a cached system with the same sparsity pattern: the phases
	// that read the pattern alone then say 0.
	SetupPhases *setupPhasesMs `json:"setup_phases_ms,omitempty"`
	PatternHit  bool           `json:"pattern_hit,omitempty"`
}

// handleSolve is the one /solve path. Every request is a member of a job
// (batch.go): a lone request is a job of one member; a request batching may
// coalesce joins the job open under its batch key as a follower, or opens
// one as its leader. The leader takes the job's one admission slot and runs
// it; every member answers from the job's outcome.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	release, ok := s.beginJob()
	if !ok {
		writeErr(w, fail(http.StatusServiceUnavailable, "server is draining"))
		return
	}
	defer release()

	q, opt, so, err := decodeSolve(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeErr(w, err)
		return
	}
	if so.Transport == "" {
		so.Transport = s.cfg.DefaultTransport
	}
	if q.Matrix == "" {
		writeErr(w, fail(http.StatusBadRequest, "missing \"matrix\" (fingerprint from POST /matrix)"))
		return
	}
	mv, ok := s.matrices.Get(q.Matrix)
	if !ok {
		writeErr(w, fail(http.StatusNotFound, "unknown matrix %q (upload it via POST /matrix)", q.Matrix))
		return
	}
	m := mv.(*uploaded)
	if q.RHS != nil && len(q.RHS) != m.a.Rows {
		writeErr(w, fail(http.StatusBadRequest, "rhs length %d, want %d", len(q.RHS), m.a.Rows))
		return
	}
	setup, err := opt.Canonical(m.a)
	if err != nil {
		writeErr(w, fail(http.StatusBadRequest, "%v", err))
		return
	}
	key := setupKey(q.Matrix, m.pattern, setup)
	bkey := ""
	if s.batchEligible(opt.Solver, so) {
		bkey = batchKey(key, so)
	}
	// Everything above is O(request). A member carries its right-hand side
	// (n random draws, or a scan of n values) into its job, but a request
	// that would need a slot and finds none, nor a queue place, is refused
	// before drawing it: a request refused under overload has cost the
	// server nothing. (A follower rides the leader's slot and is never
	// refused.)
	if !s.joinable(bkey) && s.atCapacity() {
		s.writeFailure(w, s.refusal(), bkey != "")
		return
	}
	rhs, err := q.rightHandSide(m)
	if err != nil {
		writeErr(w, err)
		return
	}
	j, idx := s.enrol(key, bkey, rhs)
	if idx > 0 {
		s.met.jobsAccepted.Add(1)
		s.met.coalescedJobs.Add(1)
		select {
		case <-j.done:
		case <-r.Context().Done():
			// The client is gone; the batch still solves this column and
			// discards it.
			s.met.jobsCanceled.Add(1)
			return
		}
	} else if s.admit(r.Context(), j) {
		// The slot covers the work, not the answer: it is free again before
		// the outcome is published or written, so a client that has read its
		// answer never finds the slot it just used still taken.
		herr := func() *httpError {
			defer func() { <-s.sem }()
			return s.run(r.Context(), q.Matrix, m.a, opt, so, j)
		}()
		s.finish(j, herr)
	}
	s.answer(w, q.Matrix, j, idx)
}

// setupPhasesMs is fsaicomm.SetupPhases on the wire: milliseconds per phase
// of one Prepare (summed over every Prepare in /metrics), plus the rebuild's
// reused/solved row counts.
type setupPhasesMs struct {
	Partition  float64 `json:"partition"`
	Permute    float64 `json:"permute"`
	Extend     float64 `json:"extend"`
	FirstBuild float64 `json:"first_build"`
	Filter     float64 `json:"filter"`
	Rebuild    float64 `json:"rebuild"`
	Transpose  float64 `json:"transpose"`
	HaloPlans  float64 `json:"halo_plans"`
	RowsReused int64   `json:"rows_reused"`
	RowsSolved int64   `json:"rows_solved"`
}

// setupOutcome is what a request learns from the prepared cache: whether its
// system was already there and, if this request paid for the set-up, how
// long it took, where the time went, and whether a cached system of the same
// pattern had the analysis done.
type setupOutcome struct {
	hit        bool
	setup      time.Duration  // 0 on a hit
	phases     *setupPhasesMs // nil on a hit
	patternHit bool
}

// prepare returns the prepared system for key, setting it up on a miss: by
// Refactor from the most recently used cached system analysed for the same
// pattern under the same options, if the cache still holds one, by a full
// Prepare otherwise. The donor is only ever read, and whatever happens to it
// afterwards — eviction, Close — leaves the new system whole. The set-up's
// phase breakdown is added to the /metrics totals exactly once, by the
// request that ran it.
func (s *Server) prepare(key string, a *fsaicomm.Matrix, opt fsaicomm.Options) (*fsaicomm.Prepared, setupOutcome, error) {
	t0 := time.Now()
	var st setupOutcome
	pv, hit, err := s.prepared.GetOrBuild(key, func() (any, int64, error) {
		p, err := s.refactorFromCache(key, a)
		if st.patternHit = p != nil; err == nil && !st.patternHit {
			s.met.patternMisses.Add(1)
			p, err = fsaicomm.Prepare(a, opt)
		}
		if err != nil {
			return nil, 0, err
		}
		s.met.setupPhases.add(p.SetupPhases())
		return p, p.SizeBytes(), nil
	})
	if err != nil {
		return nil, setupOutcome{}, err
	}
	p := pv.(*fsaicomm.Prepared)
	if st.hit = hit; !hit {
		st.setup = time.Since(t0)
		var one phaseTotals
		one.add(p.SetupPhases())
		st.phases = one.snapshot()
	}
	return p, st, nil
}

// refactorFromCache sets a's system up on the analysis of the most recently
// used cached system whose key shares key's donorSuffix. It returns nil
// without an error when the cache holds no such system — or holds one whose
// pattern is not a's after all, two patterns under one digest.
func (s *Server) refactorFromCache(key string, a *fsaicomm.Matrix) (*fsaicomm.Prepared, error) {
	suffix := donorSuffix(key)
	donor, ok := s.prepared.Find(func(k string) bool { return strings.HasSuffix(k, suffix) })
	if !ok {
		return nil, nil
	}
	p, err := donor.(*fsaicomm.Prepared).Refactor(a)
	if err != nil {
		if errors.Is(err, fsaicomm.ErrPatternMismatch) {
			err = nil
		}
		return nil, err
	}
	s.met.patternHits.Add(1)
	if p.SetupPhases().Replanned {
		s.met.patternReplans.Add(1)
	}
	return p, nil
}

// recharge re-reads what a prepared system holds after a "tcp" solve, which
// may have left worker processes resident on it or taken them away: the
// cache's byte budget is what bounds the number of resident processes.
func (s *Server) recharge(key string, p *fsaicomm.Prepared, so fsaicomm.SolveOptions) {
	if so.Transport == "tcp" {
		s.prepared.Recharge(key, p, p.SizeBytes())
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	b, err := s.met.snapshot(s.prepared, s.matrices)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}
