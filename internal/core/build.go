package core

import (
	"fmt"
	"time"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/fsai"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/spai"
	"fsaicomm/internal/sparse"
)

// Config selects preconditioner variant, filtering, and architecture
// parameters for a distributed build.
type Config struct {
	Method    Method
	Filter    float64 // initial Filter value (paper uses 0.01/0.05/0.1/0.2)
	Strategy  FilterStrategy
	LineBytes int // cache line size of the target architecture
	// PatternLevel selects the base sparse pattern: level 1 (default) is
	// the lower triangle of A, the paper's baseline; level N uses the lower
	// triangle of pattern(Ã^N) ("sparse level" in §2.2). Threshold is the
	// tau used to build Ã by dropping small entries; 0 keeps all.
	PatternLevel int
	Threshold    float64
	// Workers bounds the shared-memory worker pool used for the per-row
	// solves inside each rank (n > 0 → exactly n; ≤ 0 → 1 worker per rank,
	// since ranks already run concurrently). This is orthogonal to the rank
	// count: ranks simulate distributed processes, workers are threads
	// inside one process.
	Workers int
	// SPAISteps, SPAIAdd and SPAIEpsilon configure the adaptive enrichment
	// of the SPAI method (ignored by the FSAI family): Steps rounds of
	// pattern growth, at most Add entries per column per round, stopping a
	// column once its least-squares residual drops below Epsilon. The base
	// pattern level is PatternLevel, shared with the FSAI family.
	SPAISteps   int
	SPAIAdd     int
	SPAIEpsilon float64
}

// rankWorkers resolves Config.Workers for per-rank pools: the zero value
// means one worker per rank rather than GOMAXPROCS, because R ranks already
// occupy the machine and R×GOMAXPROCS goroutines would oversubscribe it.
func (c Config) rankWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return 1
}

// Build is the result of constructing a preconditioner on one rank. All
// global statistics are identical on every rank.
type Build struct {
	Method Method
	// GRows and GTRows are this rank's rows of G and Gᵀ with global columns.
	GRows, GTRows *sparse.CSR
	// GOp and GTOp are the halo-ready distributed operators used by the
	// preconditioned solve, in the blocking FP64 schedule: a solve that wants
	// the overlap view or float32 values asks the operators for them
	// (EnsureOverlap, SetF32), which needs no communication.
	GOp, GTOp *distmat.Op
	// FilterUsed is this rank's final Filter value (ranks differ under the
	// dynamic strategy).
	FilterUsed float64
	// BaseNNZGlobal is the global entry count of the unextended FSAI
	// pattern; FinalNNZGlobal of the pattern actually used.
	BaseNNZGlobal, FinalNNZGlobal int64
	// PctNNZIncrease is the paper's "% NNZ": percentage increase of the
	// lower-triangular pattern entries versus the FSAI pattern.
	PctNNZIncrease float64
	// ImbalanceIndex is avg/max per-rank entries of the final factor
	// (§5.3.3: 1 = balanced, lower = worse).
	ImbalanceIndex float64
	// Extension statistics from Algorithm 3 (zero-valued for FSAI).
	Extend ExtendStats
	// Phases says where this rank's share of the build time went.
	Phases SetupPhases
	// MRows and MOp are this rank's rows of the explicit approximate
	// inverse M and its halo-ready operator — set only for Method SPAI,
	// where the solve is right-preconditioned GMRES rather than the
	// two-triangular-solve CG of the FSAI family (GRows/GTRows are nil).
	MRows *sparse.CSR
	MOp   *distmat.Op
}

// SetupPhases is one rank's wall-clock breakdown of BuildPrecond. Phases
// that contain a collective include the wait for the slowest rank.
type SetupPhases struct {
	// Extend covers the base pattern and its extension (Algorithm 3).
	Extend time.Duration
	// FirstBuild is the factor on the (extended) pattern — the only build of
	// plain FSAI and of SPAI; Filter and Rebuild are Algorithm 2 steps 4–5.
	FirstBuild, Filter, Rebuild time.Duration
	// RowsReused and RowsSolved split the rebuild's rows into those copied
	// from the first build and those solved again.
	RowsReused, RowsSolved int
	// Transpose is the distributed Gᵀ; HaloPlans the localization and halo
	// schedules of the factors.
	Transpose, HaloPlans time.Duration
}

// MeanPhases merges the ranks' breakdowns of one build: the mean time per
// phase and the summed row counts. Ranks run side by side and meet at every
// collective, so each spends the same total; the mean splits that total by
// phase without counting one rank's work and another's wait for it twice.
func MeanPhases(ranks []SetupPhases) SetupPhases {
	var m SetupPhases
	for _, q := range ranks {
		m.Extend += q.Extend
		m.FirstBuild += q.FirstBuild
		m.Filter += q.Filter
		m.Rebuild += q.Rebuild
		m.Transpose += q.Transpose
		m.HaloPlans += q.HaloPlans
		m.RowsReused += q.RowsReused
		m.RowsSolved += q.RowsSolved
	}
	if n := time.Duration(len(ranks)); n > 0 {
		m.Extend /= n
		m.FirstBuild /= n
		m.Filter /= n
		m.Rebuild /= n
		m.Transpose /= n
		m.HaloPlans /= n
	}
	return m
}

// BuildPrecond constructs the selected preconditioner variant on a
// distributed matrix. aRows holds this rank's rows of the SPD matrix A with
// global column indices over layout l. Collective: every rank calls with
// the same Config.
func BuildPrecond(c *simmpi.Comm, l *distmat.Layout, aRows *sparse.CSR, cfg Config) (*Build, error) {
	lo, hi := l.Range(c.Rank())
	if aRows.Rows != hi-lo {
		return nil, fmt.Errorf("core: rank %d has %d rows, layout says %d", c.Rank(), aRows.Rows, hi-lo)
	}
	if cfg.Method == SPAI {
		return buildSPAIDist(c, l, lo, hi, aRows, cfg)
	}
	var ph SetupPhases
	mark := time.Now()
	// lap returns the time since the previous lap (or the start).
	lap := func() time.Duration {
		now := time.Now()
		d := now.Sub(mark)
		mark = now
		return d
	}
	var s *fsai.DistRows
	if cfg.PatternLevel > 1 || cfg.Threshold > 0 {
		level := cfg.PatternLevel
		if level < 1 {
			level = 1
		}
		var err error
		s, err = fsai.PowerPatternDist(c, l, aRows, lo, hi, level, cfg.Threshold)
		if err != nil {
			return nil, err
		}
	} else {
		s = LowerPatternDist(aRows, lo)
	}
	baseNNZ := c.AllreduceSumInt64(int64(s.Pattern.NNZ()))[0]

	var g *sparse.CSR
	var st ExtendStats
	filterUsed := 0.0
	switch cfg.Method {
	case FSAI:
		// Baseline: the pattern of the lower triangle of A, "without
		// thresholding and filtering only null entries" — structural zeros
		// cannot occur in LowerPatternDist, so the pattern is used as is.
		ph.Extend = lap()
		var err error
		if g, err = fsai.BuildDistWorkers(c, l, aRows, s, cfg.rankWorkers()); err != nil {
			return nil, fmt.Errorf("core: final build: %w", err)
		}
		ph.FirstBuild = lap()
	case FSAIE, FSAIEComm:
		lz := distmat.Localize(lo, hi, PatternCSR(s))
		ext, est, err := ExtendPattern(l, s, lz, ExtendOptions{
			LineBytes: cfg.LineBytes,
			CommAware: cfg.Method == FSAIEComm,
		})
		if err != nil {
			return nil, err
		}
		st = est
		ph.Extend = lap()
		gExt, err := fsai.BuildDistWorkers(c, l, aRows, ext, cfg.rankWorkers())
		if err != nil {
			return nil, fmt.Errorf("core: precompute on extended pattern: %w", err)
		}
		ph.FirstBuild = lap()
		var rs RebuildStats
		g, rs, err = FilterRebuild(c, l, aRows, gExt, s.Pattern, cfg.Filter, cfg.Strategy, cfg.rankWorkers())
		if err != nil {
			return nil, err
		}
		filterUsed = rs.FilterUsed
		ph.Filter, ph.Rebuild = rs.FilterTime, rs.RebuildTime
		ph.RowsReused, ph.RowsSolved = rs.RowsReused, rs.RowsSolved
		lap() // FilterRebuild timed itself; restart the clock
	default:
		return nil, fmt.Errorf("core: unknown method %v", cfg.Method)
	}

	gt := distmat.TransposeDist(c, l, lo, hi, g)
	ph.Transpose = lap()

	finalNNZ := c.AllreduceSumInt64(int64(g.NNZ()))[0]
	b := &Build{
		Method:         cfg.Method,
		GRows:          g,
		GTRows:         gt,
		GOp:            distmat.NewOp(c, l, lo, hi, g),
		GTOp:           distmat.NewOp(c, l, lo, hi, gt),
		FilterUsed:     filterUsed,
		BaseNNZGlobal:  baseNNZ,
		FinalNNZGlobal: finalNNZ,
		ImbalanceIndex: distmat.NNZImbalanceIndex(c, int64(g.NNZ())),
		Extend:         st,
	}
	ph.HaloPlans = lap()
	b.Phases = ph
	if baseNNZ > 0 {
		b.PctNNZIncrease = 100 * float64(finalNNZ-baseNNZ) / float64(baseNNZ)
	}
	return b, nil
}

// buildSPAIDist constructs the adaptive SPAI right inverse on a distributed
// matrix. Unlike the FSAI family there is no factor pair: the result carries
// MRows/MOp and leaves GRows/GTRows nil. BaseNNZGlobal reports the global
// entry count of A so PctNNZIncrease compares the inverse against the
// operator it approximates.
func buildSPAIDist(c *simmpi.Comm, l *distmat.Layout, lo, hi int, aRows *sparse.CSR, cfg Config) (*Build, error) {
	t0 := time.Now()
	m, err := spai.BuildDist(c, l, lo, hi, aRows, cfg.spaiOptions())
	if err != nil {
		return nil, fmt.Errorf("core: SPAI build: %w", err)
	}
	t1 := time.Now()
	baseNNZ := c.AllreduceSumInt64(int64(aRows.NNZ()))[0]
	finalNNZ := c.AllreduceSumInt64(int64(m.NNZ()))[0]
	b := &Build{
		Method:         SPAI,
		MRows:          m,
		MOp:            distmat.NewOp(c, l, lo, hi, m),
		BaseNNZGlobal:  baseNNZ,
		FinalNNZGlobal: finalNNZ,
		ImbalanceIndex: distmat.NNZImbalanceIndex(c, int64(m.NNZ())),
	}
	b.Phases = SetupPhases{FirstBuild: t1.Sub(t0), HaloPlans: time.Since(t1)}
	if baseNNZ > 0 {
		b.PctNNZIncrease = 100 * float64(finalNNZ-baseNNZ) / float64(baseNNZ)
	}
	return b, nil
}

// spaiOptions maps the Config knobs onto the spai package's options.
func (c Config) spaiOptions() spai.Options {
	level := c.PatternLevel
	if level < 1 {
		level = 1
	}
	return spai.Options{
		Level:   level,
		Steps:   c.SPAISteps,
		Add:     c.SPAIAdd,
		Epsilon: c.SPAIEpsilon,
		Workers: c.rankWorkers(),
	}
}

// BuildSerialSPAI constructs the SPAI approximate inverse on an
// undistributed matrix — the one-process counterpart of the SPAI branch of
// BuildPrecond. Returns M and the percentage NNZ increase over A.
func BuildSerialSPAI(a *sparse.CSR, cfg Config) (*sparse.CSR, float64, error) {
	o := cfg.spaiOptions()
	// Serial builds follow the other BuildSerial* entry points: Workers ≤ 0
	// means all cores, not the one-per-rank default of distributed builds.
	o.Workers = cfg.Workers
	m, err := spai.Build(a, o)
	if err != nil {
		return nil, 0, err
	}
	pct := 0.0
	if a.NNZ() > 0 {
		pct = 100 * float64(m.NNZ()-a.NNZ()) / float64(a.NNZ())
	}
	return m, pct, nil
}

// BuildSerial constructs the preconditioner on an undistributed matrix (the
// one-process case; FSAIE and FSAIE-Comm coincide because there is no halo).
// Returns G and the percentage NNZ increase over the FSAI pattern.
func BuildSerial(a *sparse.CSR, method Method, filter float64, lineBytes int) (*sparse.CSR, float64, error) {
	return BuildSerialLevel(a, method, filter, lineBytes, 1, 0)
}

// BuildSerialLevel is BuildSerial with an explicit base-pattern sparse level
// and thresholding tau (level ≤ 1 and tau 0 reproduce BuildSerial). The
// row solves use all available cores; BuildSerialLevelWorkers exposes the
// worker count.
func BuildSerialLevel(a *sparse.CSR, method Method, filter float64, lineBytes, level int, tau float64) (*sparse.CSR, float64, error) {
	return BuildSerialLevelWorkers(a, method, filter, lineBytes, level, tau, 0)
}

// BuildSerialLevelWorkers is BuildSerialLevel with an explicit worker count
// for the per-row solves and pattern powering (<= 0 selects GOMAXPROCS).
func BuildSerialLevelWorkers(a *sparse.CSR, method Method, filter float64, lineBytes, level int, tau float64, workers int) (*sparse.CSR, float64, error) {
	if level < 1 {
		level = 1
	}
	s := fsai.PowerPatternWorkers(a, level, tau, workers)
	base := s.NNZ()
	var pattern *sparse.Pattern
	var gExt *sparse.CSR // factor on the extended pattern, if there is one
	switch method {
	case FSAI:
		pattern = s
	case FSAIE, FSAIEComm:
		ext, err := ExtendPatternSerial(s, lineBytes)
		if err != nil {
			return nil, 0, err
		}
		gExt, err = fsai.BuildWorkers(a, ext, workers)
		if err != nil {
			return nil, 0, err
		}
		// Filter extension candidates only; the base pattern is protected.
		pattern = fsai.FilterDist(gExt, 0, a.Rows, filter, s).Pattern
	default:
		return nil, 0, fmt.Errorf("core: unknown method %v", method)
	}
	// Rows the filter left whole are copied from gExt, not solved again.
	g, _, err := fsai.RebuildWorkers(a, gExt, pattern, workers)
	if err != nil {
		return nil, 0, err
	}
	pct := 0.0
	if base > 0 {
		pct = 100 * float64(g.NNZ()-base) / float64(base)
	}
	return g, pct, nil
}
