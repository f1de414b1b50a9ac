// Package core implements the paper's contribution: communication-aware,
// cache-friendly sparse pattern extensions for the FSAI preconditioner
// (FSAIE and FSAIE-Comm, Algorithm 3) and the dynamic filtering-out strategy
// that restores inter-process load balance (Algorithm 4), plus the
// orchestration that builds the full preconditioner on a distributed matrix.
package core

import (
	"fmt"
	"sort"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/fsai"
	"fsaicomm/internal/sparse"
)

// Method selects the preconditioner variant, in the order the paper
// evaluates them.
type Method int

const (
	// FSAI is the baseline: lower-triangular pattern of A, no extension.
	FSAI Method = iota
	// FSAIE extends the pattern cache-friendly using local entries only
	// (the shared-memory method of Laut et al. HPDC'21 applied per process).
	FSAIE
	// FSAIEComm additionally extends into the halo wherever doing so adds
	// no new communication — the contribution of the paper.
	FSAIEComm
	// SPAI is the Grote–Huckle adaptive sparse approximate inverse for
	// general nonsymmetric matrices — an explicit right inverse M ≈ A⁻¹
	// applied inside GMRES rather than a factorized pair inside CG.
	SPAI
)

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case FSAI:
		return "FSAI"
	case FSAIE:
		return "FSAIE"
	case FSAIEComm:
		return "FSAIE-Comm"
	case SPAI:
		return "SPAI"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ExtendOptions configures the pattern extension of Algorithm 3.
type ExtendOptions struct {
	// LineBytes is the cache-line size of the target architecture (64 on
	// Skylake/Zen 2, 256 on A64FX). Candidates are the entries of the
	// multiplying vector sharing a cache line with an entry the original
	// pattern already touches.
	LineBytes int
	// CommAware enables the halo extension (FSAIE-Comm). When false only
	// local candidates are admitted (FSAIE).
	CommAware bool
}

// ExtendStats reports what the extension did on this rank.
type ExtendStats struct {
	BaseNNZ       int64 // entries before extension
	AddedLocal    int64 // local entries added
	AddedHalo     int64 // halo entries added (zero unless CommAware)
	RejectedHalo  int64 // cache-friendly halo candidates rejected to protect the communication scheme
	LinesPerRow   float64
	CandidateHits int64
}

// ExtendPattern implements Algorithm 3 on one rank's rows. s holds the local
// rows of the lower-triangular pattern S with global columns; lz is the
// localized view of S, defining the memory layout of the multiplying vector
// (locals first, then the halo buffer) whose cache lines supply the
// candidate entries. The result is a superset of s with the same shape.
//
// Admissibility of a candidate column k for row i (global gi), following §3
// of the paper:
//   - k local: always admissible (local entries of G stay on this process
//     in Gᵀ too, so they cost no communication);
//   - k halo, CommAware: admissible iff (a) x_k is already received in the
//     halo update of S — automatic here because candidates come from cache
//     lines of the halo buffer, which holds exactly the received unknowns —
//     and (b) x_i is already sent to the process owning k (Alg. 3 step 13).
//     For the Gᵀ product, x_i flows from this rank to owner(k) exactly when
//     row i of S already holds some halo entry owned by owner(k) ("halo
//     coefficients belonging to rows where there is already a non-zero halo
//     entry"), so that is the test: the candidate's owner must already
//     appear among the owners of row i's existing halo entries;
//   - k halo, !CommAware: rejected (FSAIE extends only local entries).
func ExtendPattern(l *distmat.Layout, s *fsai.DistRows, lz *distmat.Localized, opt ExtendOptions) (*fsai.DistRows, ExtendStats, error) {
	if opt.LineBytes < 8 || opt.LineBytes%8 != 0 {
		return nil, ExtendStats{}, fmt.Errorf("core: line size %d not a positive multiple of 8 bytes", opt.LineBytes)
	}
	w := opt.LineBytes / 8 // float64s per cache line
	lo, hi := s.Lo, s.Hi
	nLocal := hi - lo
	totalCols := nLocal + len(lz.Halo)

	st := ExtendStats{BaseNNZ: int64(s.Pattern.NNZ())}
	// Counting pass: a row can grow by at most w candidates per cache line it
	// touches, which bounds the slab every row set is carved from. Localized
	// columns are sorted, so the entries of one line are adjacent.
	var lineCount int64
	for li := 0; li < nLocal; li++ {
		locRow, _ := lz.M.Row(li)
		last := -1
		for _, j := range locRow {
			if line := j / w; line != last {
				last = line
				lineCount++
			}
		}
	}
	slab := make([]int, 0, s.Pattern.NNZ()+int(lineCount)*w)
	rowSets := make([][]int, nLocal)
	var rowOwners []int // scratch: owners of this row's existing halo entries
	for li := 0; li < nLocal; li++ {
		gi := lo + li
		origGlobal := s.Pattern.Row(li)
		locRow, _ := lz.M.Row(li) // localized indices, sorted
		// Owners this row already exchanges with (for the Gᵀ product: x_i is
		// already sent to each of these).
		rowOwners = rowOwners[:0]
		for _, g := range origGlobal {
			if g < lo || g >= hi {
				rowOwners = append(rowOwners, l.Owner(g))
			}
		}
		sort.Ints(rowOwners)
		rowSendsTo := func(peer int) bool {
			k := sort.SearchInts(rowOwners, peer)
			return k < len(rowOwners) && rowOwners[k] == peer
		}

		first := len(slab)
		slab = append(slab, origGlobal...)
		lastLine := -1
		for _, j := range locRow {
			line := j / w
			if line == lastLine {
				continue
			}
			lastLine = line
			start := line * w
			end := start + w
			if end > totalCols {
				end = totalCols
			}
			for k := start; k < end; k++ {
				st.CandidateHits++
				var gk int
				local := k < nLocal
				if local {
					gk = lo + k
				} else {
					gk = lz.Halo[k-nLocal]
				}
				if gk > gi {
					continue // keep G lower triangular
				}
				if local {
					slab = append(slab, gk)
					continue
				}
				if !opt.CommAware {
					continue
				}
				if rowSendsTo(l.Owner(gk)) {
					slab = append(slab, gk)
				} else {
					st.RejectedHalo++
				}
			}
		}
		rowSets[li] = slab[first:]
	}
	ext := &fsai.DistRows{
		Lo: lo, Hi: hi,
		Pattern: sparse.PatternFromRows(nLocal, s.Pattern.Cols, rowSets),
	}
	// Added-entry accounting, split local/halo.
	for li := 0; li < nLocal; li++ {
		orig := s.Pattern.Row(li)
		now := ext.Pattern.Row(li)
		oi := 0
		for _, g := range now {
			for oi < len(orig) && orig[oi] < g {
				oi++
			}
			if oi < len(orig) && orig[oi] == g {
				continue
			}
			if g >= lo && g < hi {
				st.AddedLocal++
			} else {
				st.AddedHalo++
			}
		}
	}
	if nLocal > 0 {
		st.LinesPerRow = float64(lineCount) / float64(nLocal)
	}
	if !ext.Pattern.Contains(s.Pattern) {
		return nil, st, fmt.Errorf("core: internal error: extension lost base entries")
	}
	return ext, st, nil
}

// LowerPatternDist extracts a rank's rows of the baseline FSAI pattern (the
// lower triangle of A with guaranteed diagonal) in DistRows form.
func LowerPatternDist(aRows *sparse.CSR, lo int) *fsai.DistRows {
	rowSets := make([][]int, aRows.Rows)
	for li := 0; li < aRows.Rows; li++ {
		gi := lo + li
		cols := aRows.ColIdx[aRows.RowPtr[li]:aRows.RowPtr[li+1]]
		set := make([]int, 0, len(cols)+1)
		hasDiag := false
		for _, c := range cols {
			if c <= gi {
				set = append(set, c)
				if c == gi {
					hasDiag = true
				}
			}
		}
		if !hasDiag {
			set = append(set, gi)
		}
		rowSets[li] = set
	}
	return &fsai.DistRows{
		Lo: lo, Hi: lo + aRows.Rows,
		Pattern: sparse.PatternFromRows(aRows.Rows, aRows.Cols, rowSets),
	}
}

// PatternCSR converts a DistRows pattern into a zero-valued CSR so it can be
// localized (the extension cares about structure only).
func PatternCSR(d *fsai.DistRows) *sparse.CSR {
	return &sparse.CSR{
		Rows:   d.Pattern.Rows,
		Cols:   d.Pattern.Cols,
		RowPtr: append([]int(nil), d.Pattern.RowPtr...),
		ColIdx: append([]int(nil), d.Pattern.ColIdx...),
		Val:    make([]float64, d.Pattern.NNZ()),
	}
}

// ExtendPatternSerial runs the extension on a whole (undistributed) matrix:
// the single-process case where every candidate is local, i.e. the
// shared-memory FSAIE of the prior paper. Returns the extended pattern.
func ExtendPatternSerial(s *sparse.Pattern, lineBytes int) (*sparse.Pattern, error) {
	d := &fsai.DistRows{Lo: 0, Hi: s.Rows, Pattern: s}
	lz := distmat.Localize(0, s.Rows, PatternCSR(d))
	l := &distmat.Layout{N: s.Rows, Offsets: []int{0, s.Rows}}
	ext, _, err := ExtendPattern(l, d, lz, ExtendOptions{LineBytes: lineBytes})
	if err != nil {
		return nil, err
	}
	return ext.Pattern, nil
}
