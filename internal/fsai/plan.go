package fsai

import (
	"math"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/parallel"
	"fsaicomm/internal/sparse"
)

// GatherPlan is the gather of a pattern's row solves made once, from
// structure alone: for each row li of the pattern, where every stored entry
// of A the restriction A(S_li, S_li) reads lands in the packed triangle,
// over the rows [q, m) that li does not share with row li−1 (q is their
// shared prefix, m the row's length). A build replays it instead of the
// merge walk of gatherRows — the same values in the same places, so the
// same bits. A chunk's first row still walks rows [0, q): only a row solved
// right after row li−1 starts with the factor of its prefix. Read-only once
// built; every factor on the structure it was made for shares it.
type GatherPlan struct {
	s     *sparse.Pattern // the pattern it was made for
	nvals int             // values of the rows it reads: the rank's, then the gathered ones
	ptr   []int           // row li's moves are moves[ptr[li]:ptr[li+1]]
	moves []move
}

// move is one stored entry of A: packed position to, value index from.
type move struct{ to, from int32 }

// PlanGather makes the gather plan of the row solves on s from rows, the
// structure of the rows of A they read (distmat.GatherPlan.Rows, or the
// whole matrix), with workers workers (<= 0 selects GOMAXPROCS). It returns
// nil, which builds take for the merge walk, when a packed position or a
// value index does not fit an int32.
func PlanGather(rows *distmat.GatheredRows, s *DistRows, workers int) *GatherPlan {
	p := s.Pattern
	if !fitsInt32(p, rows) {
		return nil
	}
	// Chunks write their rows' move counts into ptr and their moves at
	// their first row of chunks: disjoint places, joined in row order.
	ptr := make([]int, p.Rows+1)
	chunks := make([][]move, p.Rows)
	// The body never fails, so neither does the loop.
	_ = parallel.For(workers, p.Rows, func(lo, hi int) error {
		moves := make([]move, 0, 16*(hi-lo))
		for li := lo; li < hi; li++ {
			n := len(moves)
			cols := p.Row(li)
			moves = appendMoves(moves, rows, cols, prefixAt(p, li), len(cols))
			ptr[li+1] = len(moves) - n
		}
		chunks[lo] = moves
		return nil
	})
	for li := range p.Rows {
		ptr[li+1] += ptr[li]
	}
	g := &GatherPlan{s: p, nvals: rows.Len(), ptr: ptr, moves: make([]move, 0, ptr[p.Rows])}
	for _, c := range chunks {
		g.moves = append(g.moves, c...)
	}
	return g
}

// fitsInt32 reports whether every packed position of the restrictions of
// p's rows and every value index of rows fit an int32.
func fitsInt32(p *sparse.Pattern, rows *distmat.GatheredRows) bool {
	longest := 0
	for li := range p.Rows {
		longest = max(longest, p.RowPtr[li+1]-p.RowPtr[li])
	}
	return longest*(longest+1)/2 <= math.MaxInt32 && rows.Len() <= math.MaxInt32
}

// prefixAt is the number of leading columns row li of p shares with row
// li−1 (0 for the first row): the rows of its restriction a solve right
// after row li−1 keeps.
func prefixAt(p *sparse.Pattern, li int) int {
	if li == 0 {
		return 0
	}
	return sharedPrefix(p.Row(li-1), p.Row(li))
}

// sharedPrefix is the number of leading entries a and b share.
func sharedPrefix(a, b []int) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// appendMoves appends the moves that fill rows [p, end) of the packed
// restriction to cols: where gatherRows' merge walk writes a stored entry,
// the first of the row's entries in each column of cols[:r+1] — found here
// from the entries' side, which skips the columns where A stores nothing.
func appendMoves(moves []move, rows *distmat.GatheredRows, cols []int, p, end int) []move {
	o := p * (p + 1) / 2
	for r := p; r < end; r++ {
		rc, at := rows.Entries(cols[r])
		row := cols[:r+1]
		b := 0
		for a, c := range rc {
			for b < len(row) && row[b] < c {
				b++
			}
			if b == len(row) {
				break
			}
			if row[b] == c {
				moves = append(moves, move{int32(o + b), int32(at + a)})
				b++
			}
		}
		o += r + 1
	}
	return moves
}

// SizeBytes is what the plan's lists occupy.
func (g *GatherPlan) SizeBytes() int64 {
	if g == nil {
		return 0
	}
	return 8*int64(len(g.ptr)) + 8*int64(len(g.moves))
}

// replay fills rows [q, m) of the packed restriction l of row li, whose
// pattern has m columns and shares q with row li−1 — +0 where A stores
// nothing, then each move's value from vals — and returns q: the rows
// [p, q) are left to the merge walk. q is the p of a solve right after row
// li−1; a chunk's first row, with p 0, walks [0, q). Should p exceed q the
// plan fills nothing and returns m. A move reads and writes at indexes that
// are data, so its line keeps both bounds checks.
func (g *GatherPlan) replay(li, p, m int, l, vals []float64) int {
	q := prefixAt(g.s, li)
	if p > q {
		return m
	}
	clear(l[q*(q+1)/2 : m*(m+1)/2])
	moves := g.moves[g.ptr[li]:g.ptr[li+1]]
	for _, mv := range moves { // bce:inner
		l[mv.to] = vals[mv.from] // bce:inner gather
	}
	return q
}
