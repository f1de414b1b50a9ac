package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// traceWindow caps the replay of a traced run: it exists to attribute time,
// not to gate it.
const traceWindow = 20.0

// runTraced replays the workload with spans recorded around every call the
// harness makes into a layer, then times the layers in process on the same
// system. The first half of the replay runs with the recorder off, so the
// run measures its own tracing overhead.
func runTraced(cfg config, spec *benchSpec) (*result, error) {
	tr := newTracer()
	tr.enable(true)
	r := newRunner(cfg, tr)
	var err error
	tr.timed("setup: spawn to first answer", 0, 0, func() { _, err = r.setup() })
	if err != nil {
		return nil, err
	}
	running := true
	defer func() {
		if running {
			r.srv.stop()
		}
	}()

	// Warm workloads upload once per server; re-uploading is idempotent but
	// still parses and fingerprints, so a few more give POST /matrix a
	// median.
	var uploads []time.Duration
	for i := 0; i < 4 && !cfg.w.cold; i++ {
		r.attempted++
		_, d, err := r.upload(r.in.base, 0, 0, true)
		if err != nil {
			r.failf("re-upload: %v", err)
			continue
		}
		uploads = append(uploads, d)
	}
	for i := 0; i < warmups; i++ {
		r.unit()
	}
	half := time.Duration(min(cfg.seconds, traceWindow) / 2 * float64(time.Second))
	var plain, traced measured
	if plain.before, err = r.srv.metrics(); err != nil {
		return nil, err
	}
	tr.enable(false)
	r.loop(half, &plain)
	tr.enable(true)
	r.loop(half, &traced)
	if traced.at, err = r.srv.metrics(); err != nil {
		return nil, err
	}
	rss := r.srv.rssPeakMB()
	r.srv.stop()
	running = false

	values, err := runLayers(cfg, tr, r.in)
	if err != nil {
		return nil, err
	}
	all := measured{samples: append(plain.samples, traced.samples...), before: plain.before, at: traced.at}
	serveLayers(&all, uploads, values)
	values["serve.rss_peak_mb"] = rss
	values["host.probe_ms"] = ms(median(append(plain.probes, traced.probes...)))
	values["trace.overhead_ratio"] = float64(median(okLatencies(traced.samples))) / float64(median(okLatencies(plain.samples)))

	path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.w.name, cfg.seed))
	if err := tr.writeChrome(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "spans written to %s\n", path)
	tr.printTotals(cfg.log)
	return report(spec.PerLayer, values, r.attempted, r.failed, cfg.log)
}

// serveLayers derives the serve, simmpi-count and archmodel metrics from the
// replay's responses and the server's /metrics deltas.
func serveLayers(m *measured, uploads []time.Duration, out map[string]float64) {
	var overhead []time.Duration
	var bytes []int
	for _, s := range m.samples {
		if !s.ok {
			continue
		}
		overhead = append(overhead, s.solve-time.Duration((s.resp.SolveMs+s.resp.SetupMs)*float64(time.Millisecond)))
		bytes = append(bytes, s.bytes)
		if s.upload > 0 {
			uploads = append(uploads, s.upload)
		}
	}
	lat := okLatencies(m.samples)
	out["serve.solve_overhead_ms"] = ms(median(overhead))
	out["serve.matrix_upload_ms"] = ms(median(uploads))
	out["serve.latency_p90_ms"] = ms(quantile(lat, 0.9))
	out["serve.response_bytes"] = float64(median(bytes))

	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	b, a := m.before, m.at
	hits := a.Cache.Prepared.Hits - b.Cache.Prepared.Hits
	misses := a.Cache.Prepared.Misses - b.Cache.Prepared.Misses
	completed := a.Jobs.Completed - b.Jobs.Completed
	batched := a.Batch.Occupancy.SumJobs - b.Batch.Occupancy.SumJobs
	out["serve.prepared_hit_ratio"] = ratio(hits, hits+misses)
	out["serve.prepared_evictions"] = float64(a.Cache.Prepared.Evictions - b.Cache.Prepared.Evictions)
	out["serve.rejected"] = float64(a.Jobs.Rejected - b.Jobs.Rejected)
	// Right-hand sides per solver invocation: 1 on the scalar path.
	out["serve.batch_occupancy"] = ratio(completed, a.Batch.BatchesTotal-b.Batch.BatchesTotal+completed-batched)
	out["simmpi.p2p_messages_per_rhs"] = ratio(
		a.Solve.IntraNodeMessages+a.Solve.InterNodeMessages-b.Solve.IntraNodeMessages-b.Solve.InterNodeMessages, completed)

	cycle := firstCycle(m.samples)
	if len(cycle) == 0 {
		return
	}
	var commBytes, collectives float64
	var modeled, solveMs []float64
	for _, s := range cycle {
		commBytes += float64(s.resp.CommBytes)
		collectives += float64(s.resp.Collectives)
		modeled = append(modeled, s.resp.ModeledSec*1e3)
		solveMs = append(solveMs, s.resp.SolveMs)
	}
	out["simmpi.comm_bytes_per_solve"] = commBytes / float64(len(cycle))
	out["simmpi.collectives_per_solve"] = collectives / float64(len(cycle))
	out["core.pct_nnz_increase"] = cycle[0].resp.PctNNZ
	// A batched response carries no modeled time; runLayers' in-process
	// scalar solve stands in there.
	if mod := median(modeled); mod > 0 {
		out["archmodel.modeled_solve_ms"] = mod
		out["archmodel.measured_over_modeled"] = median(solveMs) / mod
	}
}
