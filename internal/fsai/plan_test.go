package fsai

import (
	"fmt"
	"slices"
	"testing"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/matgen"
)

// TestGatherPlanReplaysTheMergeWalk: on line extensions of a 3-D
// Laplacian's lower pattern (343 rows), where most rows share all but their
// last column with the row before, the plan is the same whatever the
// workers that made it, and a build that replays it gives the bits of one
// that factors every row from scratch with 1, 2 and 8 workers — whose
// chunks start at rows that share a prefix with the row before, so that a
// chunk's first row walks rows [0, q) of A and replays the rest. A plan
// made for another pattern is refused.
func TestGatherPlanReplaysTheMergeWalk(t *testing.T) {
	a := matgen.Poisson3D(7, 7, 7)
	src := distmat.LocalRows(a)
	for _, w := range []int{1, 4, 8} {
		s := &DistRows{Lo: 0, Hi: a.Rows, Pattern: lineExtend(LowerPattern(a), w)}
		plan := PlanGather(src, s, 1)
		for _, workers := range []int{2, 8} {
			other := PlanGather(src, s, workers)
			if !slices.Equal(other.ptr, plan.ptr) || !slices.Equal(other.moves, plan.moves) {
				t.Fatalf("line %d: the plan made by %d workers differs from one worker's", w, workers)
			}
		}
		if w > 1 && prefixAt(s.Pattern, 64) == 0 {
			t.Fatalf("line %d: row 64, the second chunk's first, shares nothing with row 63", w)
		}
		want := buildFromScratch(t, a, s.Pattern)
		for _, workers := range []int{1, 2, 8} {
			g, err := BuildGathered(src, s, plan, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("line %d workers %d", w, workers), g.Val, want.Val)
		}
	}
	s := &DistRows{Lo: 0, Hi: a.Rows, Pattern: LowerPattern(a)}
	stale := PlanGather(src, &DistRows{Lo: 0, Hi: a.Rows, Pattern: LowerPattern(a)}, 1)
	if _, err := BuildGathered(src, s, stale, 1); err == nil {
		t.Fatal("a plan made for another pattern was replayed")
	}
}
