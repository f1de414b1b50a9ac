package core

import (
	"fmt"
	"runtime"
	"slices"
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
	// solves inside each rank (n > 0 → exactly n; ≤ 0 → GOMAXPROCS on a
	// world of one rank, which has the machine to itself, and 1 worker per
	// rank on a larger one, whose ranks already run concurrently). This is
	// orthogonal to the rank count: ranks simulate distributed processes,
	// workers are threads inside one process.
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

// rankWorkers resolves Config.Workers for the pool of a rank of a world of
// ranks ranks, the one rule for its default: a lone rank has the machine to
// itself and takes GOMAXPROCS, while R > 1 ranks already occupy it, so each
// takes one worker rather than R×GOMAXPROCS goroutines oversubscribing it.
func (c Config) rankWorkers(ranks int) int {
	switch {
	case c.Workers > 0:
		return c.Workers
	case ranks == 1:
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// Build is the result of constructing a preconditioner on one rank. All
// global statistics are identical on every rank.
type Build struct {
	Method Method
	// AOp is the halo-ready operator of A itself.
	AOp *distmat.Op
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
	// Plan is the structure of G and Gᵀ this build moved its values through
	// (nil for SPAI). Handed to the next Factor on the same Symbolic, it is
	// used again if the factor's pattern has not moved.
	Plan *FactorPlan
}

// SetupPhases is one rank's wall-clock breakdown of a build. Phases that
// contain a collective include the wait for the slowest rank; a phase that
// did not run reads 0.
type SetupPhases struct {
	// Extend covers the base pattern and its extension (Algorithm 3).
	Extend time.Duration
	// FirstBuild is the factor on the (extended) pattern — the only build of
	// plain FSAI, of SPAI and of a static Filter 0; Filter and Rebuild are
	// Algorithm 2 steps 4–5.
	FirstBuild, Filter, Rebuild time.Duration
	// RowsReused and RowsSolved split the final factor's rows into those
	// taken from the first build and those solved again.
	RowsReused, RowsSolved int
	// Transpose is the distributed Gᵀ; HaloPlans the localization and halo
	// schedules of A and the factors. With their structure at hand both are
	// the time to move values through it.
	Transpose, HaloPlans time.Duration
	// Replanned says that Factor was handed a plan and could not use it:
	// the filter left another pattern than the one it was made for.
	Replanned bool
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
		m.Replanned = m.Replanned || q.Replanned
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
// distributed matrix: the analyse phase, then the factor phase on what it
// found. aRows holds this rank's rows of the SPD matrix A with global column
// indices over layout l. Collective: every rank calls with the same Config.
func BuildPrecond(c *simmpi.Comm, l *distmat.Layout, aRows *sparse.CSR, cfg Config) (*Build, error) {
	s, err := Analyse(c, l, &sparse.CSR{Rows: aRows.Rows, Cols: aRows.Cols, RowPtr: aRows.RowPtr, ColIdx: aRows.ColIdx}, cfg)
	if err != nil {
		return nil, err
	}
	b, err := s.Factor(c, aRows.Val, nil)
	if err != nil {
		return nil, err
	}
	b.Phases.Extend += s.Phases.Extend
	b.Phases.HaloPlans += s.Phases.HaloPlans
	return b, nil
}

// Symbolic is one rank's result of the analyse phase: everything about a
// set-up that follows from A's sparsity pattern and the Config alone. It is
// read-only once built, so any number of Factor calls — for different
// values, concurrently, each in its own world — may share it.
type Symbolic struct {
	cfg    Config
	l      *distmat.Layout
	lo, hi int
	// aPtr and aIdx are the rank's rows of A, global columns.
	aPtr, aIdx []int
	a          opShape
	// pat is the pattern of the first build with the schedule that gathers
	// the rows of A it reads; nil when values shape that pattern too
	// (Threshold, a pattern level above 1, SPAI) and Factor works it out.
	pat *patternPlan
	// Phases is where the analysis time went: Extend and HaloPlans.
	Phases SetupPhases
}

// patternPlan is the FSAI family's pattern work up to the first build.
type patternPlan struct {
	base    *fsai.DistRows // protected from the filter
	baseNNZ int64          // over all ranks
	ext     *fsai.DistRows // base itself for plain FSAI
	st      ExtendStats
	gather  *distmat.GatherPlan
}

// FactorPlan is the structure of one factor pattern: G's rows, the
// transpose that makes Gᵀ of them, both operators' localized structure and
// halo plans, and the pattern's global statistics. Read-only once built.
type FactorPlan struct {
	rowPtr, colIdx []int // this rank's rows of G, global columns
	t              *distmat.TransposePlan
	g, gt          opShape
	finalNNZ       int64
	imbalance      float64
}

// opShape is a distributed operator without its values: the localized
// structure of the rank's rows and their halo plan.
type opShape struct {
	lz   *distmat.Localized
	plan *distmat.HaloPlan
}

// newOpShape localizes the pattern of the rank's rows (global columns) and
// plans their halo update. Collective.
func newOpShape(c *simmpi.Comm, l *distmat.Layout, lo, hi int, rowPtr, colIdx []int) opShape {
	op := distmat.NewOp(c, l, lo, hi, &sparse.CSR{Rows: hi - lo, Cols: l.N, RowPtr: rowPtr, ColIdx: colIdx})
	return opShape{op.LZ, op.Plan}
}

// fill returns the operator with vals, the entries of the rows the shape
// was made from, for its values. The structure is shared; the plan is a
// clone, whose buffers belong to the operator.
func (s opShape) fill(vals []float64) *distmat.Op {
	return distmat.NewOpFromParts(s.lz.WithValues(vals), s.plan.Clone())
}

// valuesShapePattern reports whether the pattern of the first build depends
// on A's values and not on its pattern alone.
func (c Config) valuesShapePattern() bool {
	return c.Method == SPAI || c.PatternLevel > 1 || c.Threshold > 0
}

// Analyse is the analyse phase on one rank. aRows holds the rank's rows of
// A with global columns; its values are not read and may be missing.
// Collective: every rank calls with the same Config.
func Analyse(c *simmpi.Comm, l *distmat.Layout, aRows *sparse.CSR, cfg Config) (*Symbolic, error) {
	lo, hi := l.Range(c.Rank())
	if aRows.Rows != hi-lo {
		return nil, fmt.Errorf("core: rank %d has %d rows, layout says %d", c.Rank(), aRows.Rows, hi-lo)
	}
	switch cfg.Method {
	case FSAI, FSAIE, FSAIEComm, SPAI:
	default:
		return nil, fmt.Errorf("core: unknown method %v", cfg.Method)
	}
	s := &Symbolic{cfg: cfg, l: l, lo: lo, hi: hi, aPtr: aRows.RowPtr, aIdx: aRows.ColIdx}
	t0 := time.Now()
	s.a = newOpShape(c, l, lo, hi, s.aPtr, s.aIdx)
	s.Phases.HaloPlans = time.Since(t0)
	if !cfg.valuesShapePattern() {
		t0 = time.Now()
		var err error
		if s.pat, err = analysePattern(c, l, aRows, cfg); err != nil {
			return nil, err
		}
		s.Phases.Extend = time.Since(t0)
	}
	return s, nil
}

// analysePattern works out the pattern of the first build — the base
// pattern and, for FSAIE and FSAIE-Comm, its extension — and plans the
// gather of the rows of A that build reads. It reads aRows' values only
// under valuesShapePattern. Collective.
func analysePattern(c *simmpi.Comm, l *distmat.Layout, aRows *sparse.CSR, cfg Config) (*patternPlan, error) {
	lo, hi := l.Range(c.Rank())
	p := &patternPlan{}
	if cfg.PatternLevel > 1 || cfg.Threshold > 0 {
		var err error
		if p.base, err = fsai.PowerPatternDist(c, l, aRows, lo, hi, max(cfg.PatternLevel, 1), cfg.Threshold); err != nil {
			return nil, err
		}
	} else {
		p.base = LowerPatternDist(aRows, lo)
	}
	p.baseNNZ = c.AllreduceSumInt64(int64(p.base.Pattern.NNZ()))[0]
	// Plain FSAI builds on the base pattern as it is: "without thresholding
	// and filtering only null entries", and structural zeros cannot occur.
	p.ext = p.base
	if cfg.Method != FSAI {
		lz := distmat.Localize(lo, hi, PatternCSR(p.base))
		var err error
		p.ext, p.st, err = ExtendPattern(l, p.base, lz, ExtendOptions{
			LineBytes: cfg.LineBytes,
			CommAware: cfg.Method == FSAIEComm,
		})
		if err != nil {
			return nil, err
		}
	}
	p.gather = distmat.PlanGather(c, l, lo, hi, aRows, fsai.RemoteColumns(p.ext, nil))
	return p, nil
}

// Factor is the factor phase on one rank: the preconditioner for the matrix
// whose rows here have the analysed pattern and the entries aVal. prev is
// the Plan of an earlier Factor on s, or nil; every rank passes its own, or
// none does. Whatever the filter makes of the values is checked against it
// and planned afresh where it differs, so the result is the one a build from
// nothing gives. Collective.
func (s *Symbolic) Factor(c *simmpi.Comm, aVal []float64, prev *FactorPlan) (*Build, error) {
	cfg, l, lo, hi := s.cfg, s.l, s.lo, s.hi
	if len(aVal) != len(s.aIdx) {
		return nil, fmt.Errorf("core: rank %d got %d values for %d analysed entries", c.Rank(), len(aVal), len(s.aIdx))
	}
	aRows := &sparse.CSR{Rows: hi - lo, Cols: l.N, RowPtr: s.aPtr, ColIdx: s.aIdx, Val: aVal}
	var ph SetupPhases
	mark := time.Now()
	// lap returns the time since the previous lap (or the start).
	lap := func() time.Duration {
		now := time.Now()
		d := now.Sub(mark)
		mark = now
		return d
	}
	b := &Build{Method: cfg.Method, AOp: s.a.fill(aVal)}
	ph.HaloPlans = lap()
	if cfg.Method == SPAI {
		if err := b.factorSPAI(c, l, lo, hi, aRows, cfg); err != nil {
			return nil, err
		}
		b.Phases.HaloPlans += ph.HaloPlans
		return b, nil
	}
	pat := s.pat
	if pat == nil {
		var err error
		if pat, err = analysePattern(c, l, aRows, cfg); err != nil {
			return nil, err
		}
		ph.Extend = lap()
	}
	gExt, err := fsai.BuildGathered(pat.gather.Values(c, aRows), pat.ext, cfg.rankWorkers(c.Size()))
	if err != nil {
		return nil, fmt.Errorf("core: build on the extended pattern: %w", err)
	}
	// Ranks differ in what their rows cost to solve. They meet here so that
	// the wait for the slowest shows as FirstBuild, whose it is, and not in
	// whichever exchange happens to come next.
	c.Barrier()
	ph.FirstBuild = lap()
	g := gExt
	switch {
	case cfg.Method == FSAI:
	case cfg.Filter == 0 && cfg.Strategy == StaticFilter:
		// A static Filter of 0 drops nothing: the extended pattern is the
		// final one and its factor the final factor, row for row.
		ph.RowsReused = g.Rows
	default:
		var rs RebuildStats
		g, rs, err = FilterRebuild(c, l, aRows, gExt, pat.base.Pattern, cfg.Filter, cfg.Strategy, cfg.rankWorkers(c.Size()))
		if err != nil {
			return nil, err
		}
		b.FilterUsed = rs.FilterUsed
		ph.Filter, ph.Rebuild = rs.FilterTime, rs.RebuildTime
		ph.RowsReused, ph.RowsSolved = rs.RowsReused, rs.RowsSolved
		lap() // FilterRebuild timed itself; restart the clock
	}

	// A pattern no value went into is the one the plan was made for; any
	// other is compared with it.
	analysed := s.pat != nil && g == gExt
	plan := prev
	if plan != nil && !analysed && plan.moved(c, g) {
		plan, ph.Replanned = nil, true
	}
	if plan == nil {
		plan = planFactor(c, l, lo, hi, g, &ph)
		lap()
	}
	g = &sparse.CSR{Rows: g.Rows, Cols: g.Cols, RowPtr: plan.rowPtr, ColIdx: plan.colIdx, Val: g.Val}
	gt := &sparse.CSR{Rows: hi - lo, Cols: l.N, RowPtr: plan.t.RowPtr, ColIdx: plan.t.ColIdx, Val: plan.t.Values(c, g.Val)}
	ph.Transpose += lap()
	b.GRows, b.GTRows = g, gt
	b.GOp, b.GTOp = plan.g.fill(g.Val), plan.gt.fill(gt.Val)
	ph.HaloPlans += lap()
	b.Plan = plan
	b.Extend = pat.st
	b.Phases = ph
	b.setNNZ(pat.baseNNZ, plan.finalNNZ, plan.imbalance)
	return b, nil
}

// moved reports, to every rank alike, whether on any rank the rows of g have
// another pattern than the one p was planned for. Collective.
func (p *FactorPlan) moved(c *simmpi.Comm, g *sparse.CSR) bool {
	var differs int64
	if !slices.Equal(g.RowPtr, p.rowPtr) || !slices.Equal(g.ColIdx, p.colIdx) {
		differs = 1
	}
	return c.AllreduceMaxInt64(differs)[0] > 0
}

// planFactor plans the transpose and both halo-ready operators for the
// pattern of g, this rank's rows of the factor, and adds the time to ph.
// Collective.
func planFactor(c *simmpi.Comm, l *distmat.Layout, lo, hi int, g *sparse.CSR, ph *SetupPhases) *FactorPlan {
	t0 := time.Now()
	p := &FactorPlan{rowPtr: g.RowPtr, colIdx: g.ColIdx}
	p.t = distmat.PlanTranspose(c, l, lo, hi, g)
	t1 := time.Now()
	p.g = newOpShape(c, l, lo, hi, g.RowPtr, g.ColIdx)
	p.gt = newOpShape(c, l, lo, hi, p.t.RowPtr, p.t.ColIdx)
	p.finalNNZ = c.AllreduceSumInt64(int64(g.NNZ()))[0]
	p.imbalance = distmat.NNZImbalanceIndex(c, int64(g.NNZ()))
	ph.Transpose += t1.Sub(t0)
	ph.HaloPlans += time.Since(t1)
	return p
}

func (b *Build) setNNZ(base, final int64, imbalance float64) {
	b.BaseNNZGlobal, b.FinalNNZGlobal, b.ImbalanceIndex = base, final, imbalance
	if base > 0 {
		b.PctNNZIncrease = 100 * float64(final-base) / float64(base)
	}
}

// SizeBytes is what the index arrays of s and of p, a plan made on s (or
// nil), occupy together, beyond the rows of A they were handed and the
// localized structure and halo schedules of the operators built on them;
// an array both hold is counted once.
func (s *Symbolic) SizeBytes(p *FactorPlan) int64 {
	var words int
	var maps int64
	if pat := s.pat; pat != nil {
		words += len(pat.base.Pattern.RowPtr) + len(pat.base.Pattern.ColIdx)
		maps += pat.gather.SizeBytes()
		ext := pat.ext.Pattern
		inPlan := p != nil && len(ext.ColIdx) > 0 && len(p.colIdx) > 0 && &ext.ColIdx[0] == &p.colIdx[0]
		if pat.ext != pat.base && !inPlan {
			words += len(ext.RowPtr) + len(ext.ColIdx)
		}
	}
	if p != nil {
		words += len(p.rowPtr) + len(p.colIdx)
		maps += p.t.SizeBytes()
	}
	return 8*int64(words) + maps
}

// factorSPAI constructs the adaptive SPAI right inverse on a distributed
// matrix. Unlike the FSAI family there is no factor pair: the result carries
// MRows/MOp and leaves GRows/GTRows nil. BaseNNZGlobal reports the global
// entry count of A so PctNNZIncrease compares the inverse against the
// operator it approximates. The inverse's pattern grows with its values, so
// nothing of it is kept from one build to the next.
func (b *Build) factorSPAI(c *simmpi.Comm, l *distmat.Layout, lo, hi int, aRows *sparse.CSR, cfg Config) error {
	t0 := time.Now()
	m, err := spai.BuildDist(c, l, lo, hi, aRows, cfg.spaiOptions(c.Size()))
	if err != nil {
		return fmt.Errorf("core: SPAI build: %w", err)
	}
	t1 := time.Now()
	b.MRows, b.MOp = m, distmat.NewOp(c, l, lo, hi, m)
	baseNNZ := c.AllreduceSumInt64(int64(aRows.NNZ()))[0]
	finalNNZ := c.AllreduceSumInt64(int64(m.NNZ()))[0]
	b.setNNZ(baseNNZ, finalNNZ, distmat.NNZImbalanceIndex(c, int64(m.NNZ())))
	b.Phases = SetupPhases{FirstBuild: t1.Sub(t0), HaloPlans: time.Since(t1)}
	return nil
}

// spaiOptions maps the Config knobs onto the spai package's options for a
// rank of a world of ranks ranks.
func (c Config) spaiOptions(ranks int) spai.Options {
	level := c.PatternLevel
	if level < 1 {
		level = 1
	}
	return spai.Options{
		Level:   level,
		Steps:   c.SPAISteps,
		Add:     c.SPAIAdd,
		Epsilon: c.SPAIEpsilon,
		Workers: c.rankWorkers(ranks),
	}
}

// BuildOneRank is the one-process build: BuildPrecond on a world of one rank
// that owns every row of a.
func BuildOneRank(a *sparse.CSR, cfg Config) (*Build, error) {
	l := &distmat.Layout{N: a.Rows, Offsets: []int{0, a.Rows}}
	var b *Build
	_, err := simmpi.Run(1, time.Hour, func(c *simmpi.Comm) error {
		var err error
		b, err = BuildPrecond(c, l, a, cfg)
		return err
	})
	return b, err
}

// BuildSerial is BuildOneRank of the FSAI family with the default pattern
// options: it returns G and the percentage NNZ increase over the FSAI
// pattern (FSAIE and FSAIE-Comm coincide, since one rank has no halo).
func BuildSerial(a *sparse.CSR, method Method, filter float64, lineBytes int) (*sparse.CSR, float64, error) {
	b, err := BuildOneRank(a, Config{Method: method, Filter: filter, LineBytes: lineBytes})
	if err != nil {
		return nil, 0, err
	}
	return b.GRows, b.PctNNZIncrease, nil
}
