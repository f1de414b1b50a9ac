package core

import (
	"fmt"
	"time"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/fsai"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
)

// FilterStrategy selects how the Filter value is applied across processes.
type FilterStrategy int

const (
	// StaticFilter uses the same Filter value on every process (the
	// previously published approach).
	StaticFilter FilterStrategy = iota
	// DynamicFilter adjusts the Filter per process by bisection until the
	// per-process entry counts are balanced (Algorithm 4).
	DynamicFilter
)

// String names the strategy as the paper's tables do.
func (s FilterStrategy) String() string {
	if s == DynamicFilter {
		return "dynamic"
	}
	return "static"
}

// imbHigh is the imbalance tolerance of Algorithm 4: a process is
// overloaded when its entry count exceeds 1.05 times the average.
const imbHigh = 1.05

// Rounds of the global balance loop and steps of each local bisection.
const (
	maxBalanceRounds    = 6
	maxBisectionSteps   = 40
	filterDoublingLimit = 1e6
)

// DynamicFilterValue implements Algorithm 4 collectively: every rank passes
// its precomputed extended factor gExt (local rows, global columns) and the
// initial Filter value, and receives its per-rank New_Filter.
//
// Eligibility is decided once with the initial Filter (Algorithm 4 line 5):
// only processes overloaded at entry (relative load > 1.05) adjust. Each
// adjusting process bisects — doubling to bracket, then midpoint steps, the
// Prev_filter/New_filter scheme of Algorithm 4 — for the SMALLEST filter
// whose surviving entry count meets its balance target, i.e. it filters out
// as little of the extension as the load constraint allows, keeping the
// numerically largest entries. A few global rounds re-evaluate the average
// as the overloaded processes shed entries. Entries of the protected base
// pattern never count against the filter (they cannot be dropped), so a
// process whose base alone exceeds the target simply drops its whole
// extension. All ranks must call together.
func DynamicFilterValue(c *simmpi.Comm, gExt *sparse.CSR, lo int, filter float64, base *sparse.Pattern) float64 {
	if filter <= 0 {
		// A non-positive filter keeps every entry; counts could never
		// change, so seed the bisection from a tiny positive value instead.
		filter = 1e-8
	}
	myF := filter
	count := fsai.CountFilteredDist(gExt, lo, myF, base)
	size := float64(c.Size())

	total := c.AllreduceSumInt64(count)[0]
	if total == 0 {
		return myF
	}
	adjusting := float64(count)*size/float64(total) > imbHigh

	for round := 0; round < maxBalanceRounds; round++ {
		avg := float64(total) / size
		target := int64(imbHigh * avg)
		needWork := 0.0
		if adjusting && count > target {
			needWork = 1
		}
		if c.AllreduceMax(needWork)[0] == 0 {
			break
		}
		if needWork == 1 {
			myF = bisectFilter(gExt, lo, base, filter, target)
			count = fsai.CountFilteredDist(gExt, lo, myF, base)
		}
		total = c.AllreduceSumInt64(count)[0]
		if total == 0 {
			break
		}
	}
	return myF
}

// bisectFilter finds (approximately) the smallest filter ≥ start whose
// surviving count is ≤ target: double to bracket, then midpoint steps.
func bisectFilter(gExt *sparse.CSR, lo int, base *sparse.Pattern, start float64, target int64) float64 {
	loF := start
	hiF := start
	for fsai.CountFilteredDist(gExt, lo, hiF, base) > target {
		loF = hiF
		hiF *= 2
		if hiF > filterDoublingLimit {
			// Even dropping every filterable entry cannot reach the target
			// (the protected base alone exceeds it); give up at the limit.
			return hiF
		}
	}
	if hiF == start {
		return start // already within target
	}
	for step := 0; step < maxBisectionSteps; step++ {
		mid := (loF + hiF) / 2
		if fsai.CountFilteredDist(gExt, lo, mid, base) > target {
			loF = mid
		} else {
			hiF = mid
		}
	}
	return hiF
}

// RebuildStats reports what FilterRebuild did on this rank.
type RebuildStats struct {
	// FilterUsed is the Filter value applied here (ranks differ under the
	// dynamic strategy).
	FilterUsed float64
	// RowsReused counts the rows whose pattern the filter left untouched and
	// whose values were therefore copied from the extended-pattern factor;
	// RowsSolved counts the rows that were solved again.
	RowsReused, RowsSolved int
	// FilterTime covers choosing the Filter value and filtering the pattern,
	// RebuildTime the row gather, the copies and the solves.
	FilterTime, RebuildTime time.Duration
}

// FilterRebuild is steps 4–5 of Algorithm 2 on one rank: pick the Filter
// value (Algorithm 4 under DynamicFilter), drop the small extension entries
// of gExt — the factor precomputed on the extended pattern; base, the
// unextended pattern, is protected — and compute the factor on what
// survives. Rows the filter left whole are copied from gExt rather than
// solved a second time (see fsai.RebuildWorkers for why that is exact), so
// with a filter that removes nothing this costs one pass over the pattern
// and no row gather payload. Collective: every rank calls it, whatever share
// of its rows it has to solve.
func FilterRebuild(c *simmpi.Comm, l *distmat.Layout, aRows, gExt *sparse.CSR, base *sparse.Pattern, filter float64, strategy FilterStrategy, workers int) (*sparse.CSR, RebuildStats, error) {
	lo, hi := l.Range(c.Rank())
	t0 := time.Now()
	st := RebuildStats{FilterUsed: filter}
	if strategy == DynamicFilter {
		st.FilterUsed = DynamicFilterValue(c, gExt, lo, filter, base)
	}
	final := fsai.FilterDist(gExt, lo, hi, st.FilterUsed, base)
	t1 := time.Now()
	st.FilterTime = t1.Sub(t0)
	g, reused, err := fsai.RebuildDistWorkers(c, l, aRows, gExt, final, workers)
	if err != nil {
		return nil, st, fmt.Errorf("core: final build: %w", err)
	}
	st.RebuildTime = time.Since(t1)
	st.RowsReused, st.RowsSolved = reused, g.Rows-reused
	return g, st, nil
}
