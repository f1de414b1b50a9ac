package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"fsaicomm/internal/sparse"
)

// config is one benchmark invocation.
type config struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	bin     string    // fsaiserve binary
	outDir  string    // where a traced run writes its span file
	log     io.Writer // human-readable progress and metric lines
	// corrupt, when set, alters each decoded x before it is checked. The
	// self-test uses it to prove a wrong answer is counted as a failure.
	corrupt func(x []float64)
}

// sample is one correctly solved right-hand side as the client saw it; the
// zero value (ok false) stands for a failed one.
type sample struct {
	ok     bool
	solve  time.Duration // POST /solve, request written to last body byte read
	upload time.Duration // POST /matrix of the same unit of work (cold-setup)
	bytes  int           // /solve response body
	resp   solveResponse // X dropped once checked
}

// latency is the client-observed time of the unit of work behind the sample.
func (s sample) latency() time.Duration { return s.upload + s.solve }

// runner drives servers through a workload's closed loop.
type runner struct {
	cfg   config
	in    *inputs
	check *checker
	tr    *tracer
	probe *hostProbe
	srv   *server

	fp    string // fingerprint of the matrix uploaded to srv (warm workloads)
	units int    // units of work issued on srv
	reqID int

	attempted, failed int
}

func newRunner(cfg config, tr *tracer) *runner {
	return &runner{cfg: cfg, in: newInputs(cfg.w, cfg.seed, cfg.quick), check: newChecker(), tr: tr, probe: newHostProbe()}
}

func (r *runner) failf(format string, args ...any) {
	r.failed++
	fmt.Fprintf(r.cfg.log, "FAILED "+format+"\n", args...)
}

// upload posts a as MatrixMarket and returns its fingerprint.
func (r *runner) upload(a *sparse.CSR, parent, req int, wantCached bool) (string, time.Duration, error) {
	body := matrixMarket(a)
	id := r.tr.begin("http POST /matrix", parent, req)
	status, out, d, err := r.srv.post("/matrix", "text/plain", body)
	r.tr.end(id)
	if err != nil {
		return "", d, err
	}
	if status != http.StatusOK {
		return "", d, fmt.Errorf("POST /matrix: HTTP %d: %s", status, out)
	}
	var mr matrixResponse
	if err := json.Unmarshal(out, &mr); err != nil {
		return "", d, fmt.Errorf("POST /matrix: %w", err)
	}
	if mr.Rows != a.Rows || mr.NNZ != a.NNZ() || mr.Cached != wantCached {
		return "", d, fmt.Errorf("POST /matrix: got %d rows, %d nnz, cached=%v; want %d, %d, %v",
			mr.Rows, mr.NNZ, mr.Cached, a.Rows, a.NNZ(), wantCached)
	}
	return mr.Matrix, d, nil
}

// post sends one /solve and decodes the answer; it checks nothing.
func (r *runner) post(fp string, k rhsKey, parent, req int) (sample, error) {
	body, err := json.Marshal(solveRequest{Matrix: fp, RHSSeed: k.rhsSeed, Method: "fsaie-comm",
		Ranks: ranks, Tol: tol, CG: r.cfg.w.cg, Transport: r.cfg.w.transport})
	if err != nil {
		return sample{}, err
	}
	id := r.tr.begin("http POST /solve", parent, req)
	status, out, d, err := r.srv.post("/solve", "application/json", body)
	r.tr.end(id)
	if err != nil {
		return sample{}, err
	}
	if status != http.StatusOK {
		return sample{}, fmt.Errorf("POST /solve: HTTP %d: %s", status, out)
	}
	s := sample{solve: d, bytes: len(out)}
	id = r.tr.begin("harness decode", parent, req)
	err = json.Unmarshal(out, &s.resp)
	r.tr.end(id)
	return s, err
}

// unit runs one unit of work and returns one sample per right-hand side.
// The first unit on a server uploads the matrix and expects a cache miss.
func (r *runner) unit() []sample {
	w := r.cfg.w
	index := r.units
	first := index == 0
	r.units++
	r.reqID++
	req := r.reqID
	root := r.tr.begin("unit "+w.name, 0, req)
	defer r.tr.end(root)

	a, matrix := r.in.base, 0
	var uploadTime time.Duration
	if w.cold || first {
		if w.cold {
			// Every fresh server of the set-up phase gets index 0; the kept
			// one continues from 1, so no server sees a matrix twice.
			matrix = index
			a = r.in.perturbed(matrix)
		}
		var err error
		r.fp, uploadTime, err = r.upload(a, root, req, false)
		if err != nil {
			r.attempted += w.clients
			for c := 0; c < w.clients; c++ {
				r.failf("unit %d: %v", index, err)
			}
			return make([]sample, w.clients)
		}
	}
	want := expect{cacheHit: !w.cold && !first}
	if w.clients > 1 {
		want.batched = w.clients
	}

	keys := make([]rhsKey, w.clients)
	for c := range keys {
		keys[c] = rhsKey{matrix: matrix, rhsSeed: r.in.rhsSeed(index*w.clients + c)}
	}
	out := make([]sample, w.clients)
	errs := make([]error, w.clients)
	var wg sync.WaitGroup
	for c := 1; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c], errs[c] = r.post(r.fp, keys[c], root, req)
		}(c)
	}
	out[0], errs[0] = r.post(r.fp, keys[0], root, req)
	wg.Wait()

	for c := range out {
		r.attempted++
		s, err := &out[c], errs[c]
		if err == nil {
			if r.cfg.corrupt != nil {
				r.cfg.corrupt(s.resp.X)
			}
			id := r.tr.begin("harness check", root, req)
			b := r.in.rightHandSide(a, keys[c], !w.cold)
			err = r.check.solve(a, b, keys[c], &s.resp, want)
			r.tr.end(id)
		}
		if err != nil {
			r.failf("unit %d rhs_seed %d: %v", index, keys[c].rhsSeed, err)
			*s = sample{}
			continue
		}
		s.ok = true
		s.upload = uploadTime
		s.resp.X = nil
	}
	return out
}

// setup spawns a fresh server and runs the first unit of work on it: the
// returned duration is what a user waits from process start to first answer.
func (r *runner) setup() (time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(r.cfg.bin, r.cfg.w.serverArgs)
	if err != nil {
		return 0, err
	}
	r.srv, r.units = srv, 0
	failedBefore := r.failed
	r.unit()
	d := time.Since(t0)
	if r.failed != failedBefore {
		srv.stop()
		r.srv = nil
		return 0, fmt.Errorf("first unit of work on a fresh server failed")
	}
	return d, nil
}

// measured is what one closed-loop phase produced.
type measured struct {
	samples    []sample        // in issue order, failed ones included
	wall       time.Duration   // time spent on units of work, probes excluded
	probes     []time.Duration // host probes taken between units
	before, at serverMetrics
}

// loop issues units of work back to back until the window has elapsed; the
// unit in flight at that moment completes and counts. Between units, every
// probeEvery, it takes a host probe (the server is idle then).
func (r *runner) loop(window time.Duration, into *measured) {
	start := time.Now()
	var probing time.Duration
	lastProbe := time.Time{}
	for time.Since(start) < window {
		if time.Since(lastProbe) >= probeEvery {
			d := r.probe.run()
			into.probes = append(into.probes, d)
			probing += d
			lastProbe = time.Now()
		}
		into.samples = append(into.samples, r.unit()...)
	}
	into.wall += time.Since(start) - probing
}

// firstCycle returns the leading samples that cover one full rotation of
// right-hand sides. Averages over it repeat exactly for a fixed seed, however
// many more samples the window had time for.
func firstCycle(samples []sample) []sample {
	var out []sample
	for _, s := range samples {
		if s.ok && len(out) < rhsCycle {
			out = append(out, s)
		}
	}
	return out
}

func okLatencies(samples []sample) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if s.ok {
			out = append(out, s.latency())
		}
	}
	return out
}

// endToEnd computes the four gated metrics of one measured phase. The three
// timings are in reference-host units (see probe.go); raw is their wall-clock
// reading.
func endToEnd(m *measured, setups, setupProbes []time.Duration) (out, raw map[string]float64) {
	lat := okLatencies(m.samples)
	iters := 0.0
	cycle := firstCycle(m.samples)
	for _, s := range cycle {
		iters += float64(s.resp.Iterations)
	}
	raw = map[string]float64{
		"setup_s":      median(setups).Seconds(),
		"solve_p50_ms": ms(median(lat)),
		"rhs_per_s":    float64(len(lat)) / m.wall.Seconds(),
	}
	out = map[string]float64{
		"setup_s":      raw["setup_s"] * hostFactor(setupProbes),
		"solve_p50_ms": raw["solve_p50_ms"] * hostFactor(m.probes),
		"rhs_per_s":    raw["rhs_per_s"] / hostFactor(m.probes),
	}
	if len(cycle) > 0 {
		out["iterations"] = iters / float64(len(cycle))
	}
	return out, raw
}
