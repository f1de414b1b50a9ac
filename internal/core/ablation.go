package core

import (
	"fmt"
	"sort"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/fsai"
	"fsaicomm/internal/sparse"
)

// ExtendPatternNaive is the ablation of the communication-aware rule: it
// extends the pattern with every cache-line candidate in *global* index
// space — including halo candidates whose unknowns were never exchanged —
// exactly what a cache-aware-but-communication-oblivious extension would
// do. The result is a superset of the FSAIE-Comm extension whose halo
// update needs MORE unknowns and possibly more neighbour processes,
// demonstrating why Algorithm 3's admissibility test exists (the paper
// argues this qualitatively; TestExtendPatternNaiveIncreasesHalo and
// TestVerifyCommInvarianceDetectsNaive pin it).
func ExtendPatternNaive(l *distmat.Layout, s *fsai.DistRows, opt ExtendOptions) (*fsai.DistRows, error) {
	if opt.LineBytes < 8 || opt.LineBytes%8 != 0 {
		return nil, fmt.Errorf("core: line size %d not a positive multiple of 8 bytes", opt.LineBytes)
	}
	w := opt.LineBytes / 8
	lo, hi := s.Lo, s.Hi
	nLocal := hi - lo
	n := s.Pattern.Cols

	rowSets := make([][]int, nLocal)
	for li := 0; li < nLocal; li++ {
		gi := lo + li
		orig := s.Pattern.Row(li)
		set := append([]int(nil), orig...)
		seenLine := map[int]bool{}
		for _, g := range orig {
			line := g / w
			if seenLine[line] {
				continue
			}
			seenLine[line] = true
			start := line * w
			end := start + w
			if end > n {
				end = n
			}
			for k := start; k < end; k++ {
				if k <= gi {
					set = append(set, k)
				}
			}
		}
		sort.Ints(set)
		rowSets[li] = set
	}
	return &fsai.DistRows{
		Lo: lo, Hi: hi,
		Pattern: sparse.PatternFromRows(nLocal, n, rowSets),
	}, nil
}
