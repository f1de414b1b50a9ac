package serve

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"fsaicomm"
	"fsaicomm/internal/mprun"
)

// latencyBucketsMs are the fixed upper bounds (milliseconds) of the solve
// latency histogram, Prometheus-style: a request of d ms increments every
// bucket with bound ≥ d plus the implicit +Inf bucket.
var latencyBucketsMs = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// histogram is a fixed-bucket cumulative latency histogram with atomic
// counters (no locking on the observe path).
type histogram struct {
	counts []atomic.Int64 // len(latencyBucketsMs)+1; last is +Inf
	count  atomic.Int64
	sumUs  atomic.Int64 // sum in microseconds, reported as fractional ms
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Int64, len(latencyBucketsMs)+1)}
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBucketsMs) && ms > latencyBucketsMs[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumUs.Add(int64(d / time.Microsecond))
}

func (h *histogram) snapshot() histogramSnapshot {
	s := histogramSnapshot{
		Count:   h.count.Load(),
		SumMs:   float64(h.sumUs.Load()) / 1000,
		Buckets: make(map[string]int64, len(h.counts)),
	}
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		label := "+Inf"
		if i < len(latencyBucketsMs) {
			label = fmt.Sprintf("%g", latencyBucketsMs[i])
		}
		s.Buckets[label] = cum
	}
	return s
}

type histogramSnapshot struct {
	Count   int64            `json:"count"`
	SumMs   float64          `json:"sum_ms"`
	Buckets map[string]int64 `json:"le_ms"`
}

// occupancyBuckets are the upper bounds of the batch-occupancy histogram:
// how many jobs each coalescing batch actually merged.
var occupancyBuckets = []int{1, 2, 4, 8, 16, 32}

// occupancyHist counts batch sizes, cumulative Prometheus-style.
type occupancyHist struct {
	counts []atomic.Int64 // len(occupancyBuckets)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Int64 // total jobs over all batches
}

func newOccupancyHist() *occupancyHist {
	return &occupancyHist{counts: make([]atomic.Int64, len(occupancyBuckets)+1)}
}

func (h *occupancyHist) observe(k int) {
	i := 0
	for i < len(occupancyBuckets) && k > occupancyBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(k))
}

func (h *occupancyHist) snapshot() occupancySnapshot {
	s := occupancySnapshot{
		Count:   h.count.Load(),
		SumJobs: h.sum.Load(),
		Buckets: make(map[string]int64, len(h.counts)),
	}
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		label := "+Inf"
		if i < len(occupancyBuckets) {
			label = fmt.Sprintf("%d", occupancyBuckets[i])
		}
		s.Buckets[label] = cum
	}
	return s
}

type occupancySnapshot struct {
	Count   int64            `json:"count"`    // batches observed
	SumJobs int64            `json:"sum_jobs"` // jobs over all batches
	Buckets map[string]int64 `json:"le"`
}

// phaseTotals sums fsaicomm.SetupPhases over Prepares: nanoseconds per
// phase and the rebuild's row counts.
type phaseTotals struct {
	partition, permute, extend, firstBuild atomic.Int64
	filter, rebuild, transpose, haloPlans  atomic.Int64
	rowsReused, rowsSolved                 atomic.Int64
}

func (t *phaseTotals) add(ph fsaicomm.SetupPhases) {
	t.partition.Add(int64(ph.Partition))
	t.permute.Add(int64(ph.Permute))
	t.extend.Add(int64(ph.Extend))
	t.firstBuild.Add(int64(ph.FirstBuild))
	t.filter.Add(int64(ph.Filter))
	t.rebuild.Add(int64(ph.Rebuild))
	t.transpose.Add(int64(ph.Transpose))
	t.haloPlans.Add(int64(ph.HaloPlans))
	t.rowsReused.Add(int64(ph.RowsReused))
	t.rowsSolved.Add(int64(ph.RowsSolved))
}

func (t *phaseTotals) snapshot() *setupPhasesMs {
	ms := func(ns *atomic.Int64) float64 { return float64(ns.Load()) / float64(time.Millisecond) }
	return &setupPhasesMs{
		Partition:  ms(&t.partition),
		Permute:    ms(&t.permute),
		Extend:     ms(&t.extend),
		FirstBuild: ms(&t.firstBuild),
		Filter:     ms(&t.filter),
		Rebuild:    ms(&t.rebuild),
		Transpose:  ms(&t.transpose),
		HaloPlans:  ms(&t.haloPlans),
		RowsReused: t.rowsReused.Load(),
		RowsSolved: t.rowsSolved.Load(),
	}
}

// metrics is the server's counter set. Everything is atomic so handlers
// never serialize on telemetry; /metrics reads a consistent-enough snapshot.
type metrics struct {
	start time.Time

	jobsAccepted  atomic.Int64
	jobsRejected  atomic.Int64 // admission-control 429s
	jobsCompleted atomic.Int64
	jobsFailed    atomic.Int64
	jobsCanceled  atomic.Int64 // deadline or client disconnect
	inFlight      atomic.Int64
	queued        atomic.Int64

	preparedHits, preparedMisses, preparedEvictions atomic.Int64
	// What became of the prepared-cache misses: set up by Refactor on a
	// cached system of the same pattern (of those, how many found their
	// filtered pattern moved and planned the factors afresh), or by Prepare.
	patternHits, patternMisses, patternReplans atomic.Int64
	matrixHits, matrixMisses, matrixEvictions  atomic.Int64

	iterations      atomic.Int64
	commBytes       atomic.Int64
	collectiveCalls atomic.Int64
	collectiveBytes atomic.Int64
	// How the ranks' blocking waits ended (fsaicomm.Result.Waits): parked is
	// the number of wake-ups the solves paid for.
	waitsReady, waitsPolled, waitsParked atomic.Int64

	// Two-level topology split of the point-to-point totals: traffic between
	// ranks on the same node vs different nodes (flat solves count everything
	// inter-node, so intra stays 0 and inter == commBytes).
	intraNodeBytes    atomic.Int64
	intraNodeMessages atomic.Int64
	interNodeBytes    atomic.Int64
	interNodeMessages atomic.Int64

	batchesTotal  atomic.Int64 // batched solves executed (any occupancy)
	coalescedJobs atomic.Int64 // jobs that rode another job's batch

	// setupPhases sums where the time of every Prepare went (one per
	// prepared-cache miss).
	setupPhases phaseTotals

	latency   *histogram
	occupancy *occupancyHist
}

func (m *metrics) addWaits(w fsaicomm.RankWaits) {
	m.waitsReady.Add(w.Ready)
	m.waitsPolled.Add(w.Polled)
	m.waitsParked.Add(w.Parked)
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), latency: newHistogram(), occupancy: newOccupancyHist()}
}

type cacheSnapshot struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
}

// preparedSnapshot is the prepared cache's occupancy and, for its misses,
// how many were set up on a cached system's analysis (pattern hits; replans
// are those among them whose filtered pattern moved) and how many in full.
type preparedSnapshot struct {
	cacheSnapshot
	PatternHits    int64 `json:"pattern_hits"`
	PatternMisses  int64 `json:"pattern_misses"`
	PatternReplans int64 `json:"pattern_replans"`
}

type metricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Jobs          struct {
		Accepted  int64 `json:"accepted"`
		Rejected  int64 `json:"rejected"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
		Canceled  int64 `json:"canceled"`
		InFlight  int64 `json:"in_flight"`
		Queued    int64 `json:"queued"`
	} `json:"jobs"`
	Cache struct {
		Prepared preparedSnapshot `json:"prepared"`
		Matrices cacheSnapshot    `json:"matrices"`
	} `json:"cache"`
	Solve struct {
		Iterations        int64 `json:"iterations_total"`
		CommBytes         int64 `json:"comm_bytes_total"`
		IntraNodeBytes    int64 `json:"intra_node_bytes_total"`
		IntraNodeMessages int64 `json:"intra_node_messages_total"`
		InterNodeBytes    int64 `json:"inter_node_bytes_total"`
		InterNodeMessages int64 `json:"inter_node_messages_total"`
		CollectiveCalls   int64 `json:"collective_calls_total"`
		CollectiveBytes   int64 `json:"collective_bytes_total"`
		WaitsReady        int64 `json:"simmpi_waits_ready"`
		WaitsPolled       int64 `json:"simmpi_waits_polled"`
		WaitsParked       int64 `json:"simmpi_waits_parked"`
	} `json:"solve"`
	Batch struct {
		BatchesTotal  int64             `json:"batches_total"`
		CoalescedJobs int64             `json:"coalesced_jobs"`
		Occupancy     occupancySnapshot `json:"occupancy"`
	} `json:"batch"`
	// Ranks reports the worker processes of "tcp" solves, process-wide:
	// reuses rising while spawns stand still is the resident mesh at work;
	// meshes resident above the number of cached systems is a leak.
	Ranks mprun.Counters `json:"ranks"`
	// SetupPhasesMs sums the phase breakdown of every Prepare the server ran.
	SetupPhasesMs *setupPhasesMs    `json:"setup_phases_ms"`
	LatencyMs     histogramSnapshot `json:"solve_latency_ms"`
}

// snapshot renders the counters plus the two caches' occupancy as JSON.
func (m *metrics) snapshot(prepared, matrices *lru) ([]byte, error) {
	var s metricsSnapshot
	s.UptimeSeconds = time.Since(m.start).Seconds()
	s.Jobs.Accepted = m.jobsAccepted.Load()
	s.Jobs.Rejected = m.jobsRejected.Load()
	s.Jobs.Completed = m.jobsCompleted.Load()
	s.Jobs.Failed = m.jobsFailed.Load()
	s.Jobs.Canceled = m.jobsCanceled.Load()
	s.Jobs.InFlight = m.inFlight.Load()
	s.Jobs.Queued = m.queued.Load()
	s.Cache.Prepared = preparedSnapshot{
		cacheSnapshot: cacheSnapshot{
			Hits: m.preparedHits.Load(), Misses: m.preparedMisses.Load(),
			Evictions: m.preparedEvictions.Load(),
			Entries:   prepared.Len(), Bytes: prepared.UsedBytes(), BudgetBytes: prepared.Budget(),
		},
		PatternHits: m.patternHits.Load(), PatternMisses: m.patternMisses.Load(),
		PatternReplans: m.patternReplans.Load(),
	}
	s.Cache.Matrices = cacheSnapshot{
		Hits: m.matrixHits.Load(), Misses: m.matrixMisses.Load(),
		Evictions: m.matrixEvictions.Load(),
		Entries:   matrices.Len(), Bytes: matrices.UsedBytes(), BudgetBytes: matrices.Budget(),
	}
	s.Solve.Iterations = m.iterations.Load()
	s.Solve.CommBytes = m.commBytes.Load()
	s.Solve.IntraNodeBytes = m.intraNodeBytes.Load()
	s.Solve.IntraNodeMessages = m.intraNodeMessages.Load()
	s.Solve.InterNodeBytes = m.interNodeBytes.Load()
	s.Solve.InterNodeMessages = m.interNodeMessages.Load()
	s.Solve.CollectiveCalls = m.collectiveCalls.Load()
	s.Solve.CollectiveBytes = m.collectiveBytes.Load()
	s.Solve.WaitsReady = m.waitsReady.Load()
	s.Solve.WaitsPolled = m.waitsPolled.Load()
	s.Solve.WaitsParked = m.waitsParked.Load()
	s.Batch.BatchesTotal = m.batchesTotal.Load()
	s.Batch.CoalescedJobs = m.coalescedJobs.Load()
	s.Batch.Occupancy = m.occupancy.snapshot()
	s.Ranks = mprun.ReadCounters()
	s.SetupPhasesMs = m.setupPhases.snapshot()
	s.LatencyMs = m.latency.snapshot()
	return json.MarshalIndent(&s, "", "  ")
}
