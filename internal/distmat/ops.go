package distmat

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/vecops"
)

// DistVec holds a rank's slice of K interleaved distributed vectors plus
// halo workspace for one matrix; K = 1 is a plain vector. Local values live
// in Ext[:NLocal*K]; Exchange / ExchangeBatch fills Ext[NLocal*K:].
type DistVec struct {
	NLocal int
	K      int
	Ext    []float64
}

// NewDistVec allocates a distributed vector view compatible with lz.
func NewDistVec(lz *Localized) *DistVec { return NewBatchDistVec(lz, 1) }

// NewBatchDistVec allocates the view for k interleaved vectors.
func NewBatchDistVec(lz *Localized, k int) *DistVec {
	if k < 1 {
		panic(fmt.Sprintf("distmat: NewBatchDistVec batch size %d < 1", k))
	}
	return &DistVec{NLocal: lz.NLocal(), K: k, Ext: make([]float64, (lz.NLocal()+len(lz.Halo))*k)}
}

// Fits reports whether v can serve as the scratch of k-wide products with lz.
func (v *DistVec) Fits(lz *Localized, k int) bool {
	return v != nil && v.NLocal == lz.NLocal() && v.K == k && len(v.Ext) == (lz.NLocal()+len(lz.Halo))*k
}

// Local returns the locally-owned (interleaved) portion of the vector.
func (v *DistVec) Local() []float64 { return v.Ext[:v.NLocal*v.K] }

// Op bundles a localized matrix with its halo plan so the distributed SpMV
// reads as a single operation, as it does in the paper's solver.
type Op struct {
	LZ   *Localized
	Plan *HaloPlan
	// overlap is the interior/boundary row split, built on request (WithOverlap
	// or EnsureOverlap); nil means the blocking schedule only.
	overlap *OverlapOp
	// f32 selects the mixed-precision kernel: products read the float32 view
	// of the matrix (float64 accumulation) and the halo travels half-width.
	f32 bool
}

// OpOption configures NewOp.
type OpOption func(*Op)

// WithOverlap makes NewOp also build the interior/boundary overlap view, so
// the operator supports the send-then-compute SpMV schedule
// (OverlapOp.MulVecOverlap) the communication-hiding solver variants use.
func WithOverlap() OpOption {
	return func(op *Op) { op.EnsureOverlap() }
}

// SetF32 switches the operator between full and mixed precision. Under f32
// the products use the float32 value array (accumulating in float64) and the
// plan exchanges halo values at 4 bytes each; iteration vectors stay float64
// throughout, so callers are unaffected beyond the rounded values.
func (op *Op) SetF32(on bool) {
	op.f32 = on
	op.Plan.SetF32(on)
}

// NewOp localizes the local rows (global columns) of a distributed matrix
// and builds its halo plan. Collective: all ranks must call it together.
func NewOp(c *simmpi.Comm, l *Layout, lo, hi int, rows *sparse.CSR, opts ...OpOption) *Op {
	lz := Localize(lo, hi, rows)
	op := &Op{LZ: lz, Plan: BuildHaloPlan(c, l, lz)}
	for _, o := range opts {
		o(op)
	}
	return op
}

// NewOpFromParts assembles an operator from a previously built localized
// matrix and halo plan without any communication — the cached-setup path: a
// preconditioner cache stores the Localized views and plan schedules from
// one collective setup and then derives per-solve operators with
// NewOpFromParts(lz, plan.Clone()). The Localized view is read-only during
// SpMVs and may be shared between concurrent solves; the plan must be a
// private clone per solve (its send buffers are mutable).
func NewOpFromParts(lz *Localized, plan *HaloPlan, opts ...OpOption) *Op {
	op := &Op{LZ: lz, Plan: plan}
	for _, o := range opts {
		o(op)
	}
	return op
}

// LocalOp wraps a whole, undistributed matrix as the operator of a one-rank
// world without copying it: every column is local and the plan has no
// peers, so its products and the solvers over it take a nil Comm. The run
// index is built here, as Localize builds it.
func LocalOp(a *sparse.CSR) *Op {
	lz := &Localized{Hi: a.Rows, M: a}
	lz.IndexRuns()
	return &Op{LZ: lz, Plan: &HaloPlan{}}
}

// Overlap returns the overlap view if it has been built, nil otherwise.
func (op *Op) Overlap() *OverlapOp { return op.overlap }

// EnsureOverlap returns the overlap view, building it on first use. The
// split is purely local (no communication), so lazy construction is safe in
// collective contexts.
func (op *Op) EnsureOverlap() *OverlapOp {
	if op.overlap == nil {
		op.overlap = NewOverlapOp(op)
	}
	return op.overlap
}

// MulVec computes the local part of y = A x, performing one halo update.
// x holds the rank's local values (length NLocal); y receives the local
// result. scratch must be a DistVec from NewDistVec(op.LZ); an operator
// whose plan has no peers does not touch it. The product walks the
// pattern's column runs where the view has a run index, its entries
// otherwise — the same bits either way. The flop counter records 2·nnz
// operations.
func (op *Op) MulVec(c *simmpi.Comm, x, y []float64, scratch *DistVec, fc *vecops.FlopCounter) {
	nl := op.LZ.NLocal()
	if len(x) != nl || len(y) != nl {
		panic(fmt.Sprintf("distmat: MulVec local length %d/%d, want %d", len(x), len(y), nl))
	}
	if !op.Plan.idle() {
		copy(scratch.Ext[:nl], x)
		op.Plan.Exchange(c, scratch.Ext, nl)
		x = scratch.Ext
	}
	if op.f32 {
		op.LZ.M32().MulVecRuns(op.LZ.runs, x, y)
	} else {
		op.LZ.M.MulVecRuns(op.LZ.runs, x, y)
	}
	fc.Add(2 * int64(op.LZ.M.NNZ()))
}

// Dot returns the global dot product of two distributed vectors; a nil Comm
// is the one-rank world, where the local product is the global one.
func Dot(c *simmpi.Comm, x, y []float64, fc *vecops.FlopCounter) float64 {
	local := vecops.Dot(x, y, fc)
	if c == nil {
		return local
	}
	return c.AllreduceSum(local)[0]
}

// SumAcross reduces vals element-wise over the ranks in one collective and
// returns the sums; on the one-rank world (nil Comm) they are vals itself.
func SumAcross(c *simmpi.Comm, vals []float64) []float64 {
	if c == nil {
		return vals
	}
	return c.AllreduceSum(vals...)
}

// Norm2 returns the global Euclidean norm of a distributed vector (nil Comm
// as for Dot).
func Norm2(c *simmpi.Comm, x []float64, fc *vecops.FlopCounter) float64 {
	s := Dot(c, x, x, fc)
	if s < 0 {
		s = 0
	}
	return math.Sqrt(s)
}

// GatheredRows serves full rows of a distributed matrix by global index
// after a GatherRemoteRows: the rank's own rows are read in place from its
// local block, the fetched remote rows sit CSR-style behind a sorted index
// list, so a lookup is a range test or a binary search — no hash map, no
// copy of local data.
type GatheredRows struct {
	lo, hi int
	local  *sparse.CSR
	ids    []int // sorted global indices of the fetched rows
	ptr    []int // row k of ids occupies cols/vals[ptr[k]:ptr[k+1]]
	cols   []int
	vals   []float64
}

// LocalRows wraps a whole, undistributed matrix as a GatheredRows: every row
// is local. It lets serial code share the row loops written against
// GatherRemoteRows.
func LocalRows(a *sparse.CSR) *GatheredRows {
	return &GatheredRows{lo: 0, hi: a.Rows, local: a}
}

// Row returns global row g (global columns) as shared, read-only slices. It
// panics if g is neither local nor among the gathered rows.
func (r *GatheredRows) Row(g int) ([]int, []float64) {
	if g >= r.lo && g < r.hi {
		return r.local.Row(g - r.lo)
	}
	return r.remote(g)
}

// remote is the slow path of Row, kept apart so that Row inlines.
func (r *GatheredRows) remote(g int) ([]int, []float64) {
	k := sort.SearchInts(r.ids, g)
	if k == len(r.ids) || r.ids[k] != g {
		panic(fmt.Sprintf("distmat: row %d is neither local to [%d,%d) nor gathered", g, r.lo, r.hi))
	}
	return r.cols[r.ptr[k]:r.ptr[k+1]], r.vals[r.ptr[k]:r.ptr[k+1]]
}

// ownerNear is Layout.Owner for callers that walk indices in nearly sorted
// order: it steps from the previous answer p instead of searching.
func ownerNear(l *Layout, g, p int) int {
	if g < 0 || g >= l.N {
		panic(fmt.Sprintf("distmat: Owner(%d) outside [0,%d)", g, l.N))
	}
	for g < l.Offsets[p] {
		p--
	}
	for g >= l.Offsets[p+1] {
		p++
	}
	return p
}

// GatherRemoteRows fetches full rows of the distributed matrix for the given
// global indices from their owners. rows is this rank's local block with
// global column indices; wanted lists global row indices (duplicates
// allowed, remote or local). Only the remote ones travel; the result serves
// every wanted row, local ones straight from rows. Collective: all ranks
// must call together, a rank that wants nothing included. This is the FSAI
// setup-phase exchange (each process needs A's rows for its halo unknowns);
// it happens once per preconditioner build, not per iteration.
func GatherRemoteRows(c *simmpi.Comm, l *Layout, lo, hi int, rows *sparse.CSR, wanted []int) *GatheredRows {
	return PlanGather(c, l, lo, hi, rows, wanted).Values(c, rows)
}

// GatherPlan is a remote-row gather without the values: which rows this
// rank fetches, their columns, and which of its own rows it serves to whom.
// It is a function of the matrix pattern and the wanted rows alone, so one
// plan serves every matrix with that pattern (Values), shared read-only.
type GatherPlan struct {
	lo, hi int
	ids    []int // sorted global indices of the fetched rows
	ptr    []int // row k of ids occupies cols[ptr[k]:ptr[k+1]]
	cols   []int
	// owners lists, ascending, the ranks the fetched rows come from — the
	// order their rows sit in ids — and serve[r] the local rows sent to r.
	owners []int
	serve  [][]int
}

// PlanGather is the index half of GatherRemoteRows; rows needs no values.
// Collective — the request counts are exchanged by every rank so that none
// waits on a peer that has nothing to ask.
func PlanGather(c *simmpi.Comm, l *Layout, lo, hi int, rows *sparse.CSR, wanted []int) *GatherPlan {
	size := c.Size()
	rank := c.Rank()
	var need []int
	for _, g := range wanted {
		if g < lo || g >= hi {
			need = append(need, g)
		}
	}
	slices.Sort(need)
	need = slices.Compact(need)
	// need is sorted and ownership is contiguous, so each owner's requests
	// are one run of it.
	needByOwner := make([][]int, size)
	counts := make([]int64, size)
	for start, p := 0, 0; start < len(need); {
		p = ownerNear(l, need[start], p)
		end := start + sort.SearchInts(need[start:], l.Offsets[p+1])
		needByOwner[p] = need[start:end]
		counts[p] = int64(end - start)
		start = end
	}
	all := c.AllgatherInt64(counts)
	// Send requests.
	for p := 0; p < size; p++ {
		if p != rank && len(needByOwner[p]) > 0 {
			c.SendInts(p, tagRowMeta, needByOwner[p])
		}
	}
	// Serve requests.
	g := &GatherPlan{lo: lo, hi: hi, ids: need, ptr: make([]int, 1, len(need)+1), serve: make([][]int, size)}
	for r := 0; r < size; r++ {
		if r == rank || all[r*size+rank] == 0 {
			continue
		}
		req := c.RecvInts(r, tagRowMeta)
		total := 0
		for k, gi := range req {
			if gi < lo || gi >= hi {
				panic(fmt.Sprintf("distmat: rank %d asked rank %d for non-local row %d", r, rank, gi))
			}
			req[k] = gi - lo
			total += rows.RowNNZ(gi - lo)
		}
		g.serve[r] = req
		// One int message: the row lengths, then every row's columns.
		meta := make([]int, len(req), len(req)+total)
		for k, li := range req {
			meta[k] = rows.RowNNZ(li)
			meta = append(meta, rows.ColIdx[rows.RowPtr[li]:rows.RowPtr[li+1]]...)
		}
		c.SendInts(r, tagRowCols, meta)
	}
	// Collect responses in owner order, which is the order of need.
	for p := 0; p < size; p++ {
		req := needByOwner[p]
		if p == rank || len(req) == 0 {
			continue
		}
		g.owners = append(g.owners, p)
		meta := c.RecvInts(p, tagRowCols)
		for _, n := range meta[:len(req)] {
			g.ptr = append(g.ptr, g.ptr[len(g.ptr)-1]+n)
		}
		g.cols = append(g.cols, meta[len(req):]...)
	}
	if len(g.cols) != g.ptr[len(g.ptr)-1] {
		panic(fmt.Sprintf("distmat: rank %d gathered %d columns for %d announced entries", rank, len(g.cols), g.ptr[len(g.ptr)-1]))
	}
	return g
}

// Values is the value half: every rank sends the values of the rows it
// serves and receives those of the rows it fetches. rows is the rank's
// block of a matrix with the planned pattern. Collective.
func (g *GatherPlan) Values(c *simmpi.Comm, rows *sparse.CSR) *GatheredRows {
	for r, req := range g.serve {
		if len(req) == 0 {
			continue
		}
		var flat []float64
		for _, li := range req {
			flat = append(flat, rows.Val[rows.RowPtr[li]:rows.RowPtr[li+1]]...)
		}
		c.SendFloats(r, tagRowVals, flat)
	}
	out := &GatheredRows{lo: g.lo, hi: g.hi, local: rows, ids: g.ids, ptr: g.ptr, cols: g.cols}
	for _, p := range g.owners {
		out.vals = append(out.vals, c.RecvFloats(p, tagRowVals)...)
	}
	if len(out.vals) != len(out.cols) {
		panic(fmt.Sprintf("distmat: rank %d gathered %d values for %d columns", c.Rank(), len(out.vals), len(out.cols)))
	}
	return out
}

// SizeBytes is what the plan's index lists occupy.
func (g *GatherPlan) SizeBytes() int64 {
	n := len(g.ids) + len(g.ptr) + len(g.cols) + len(g.owners)
	for _, req := range g.serve {
		n += len(req)
	}
	return 8 * int64(n)
}

// TransposeDist computes the distributed transpose: given this rank's local
// rows of G (global columns), it returns this rank's local rows of Gᵀ
// (global columns). Collective.
func TransposeDist(c *simmpi.Comm, l *Layout, lo, hi int, rows *sparse.CSR) *sparse.CSR {
	t := PlanTranspose(c, l, lo, hi, rows)
	return &sparse.CSR{Rows: hi - lo, Cols: l.N, RowPtr: t.RowPtr, ColIdx: t.ColIdx, Val: t.Values(c, rows.Val)}
}

// TransposePlan is a distributed transpose without the values: this rank's
// rows of Gᵀ as a pattern, and for every entry of its rows of G where the
// value goes — a position in Gᵀ's entry array here, or a place in the
// message to the rank that owns the entry's column. It is a function of
// G's pattern alone; Values runs it for one set of values. Shared read-only.
type TransposePlan struct {
	// RowPtr and ColIdx are this rank's rows of Gᵀ, global columns.
	RowPtr, ColIdx []int
	// to[e] is the position in Gᵀ's entries of entry e of G, −1 if it leaves
	// this rank; send[p] lists the entries shipped to rank p in shipping
	// order, recv[r] the positions of the values rank r ships here.
	to         []int
	send, recv [][]int
}

// PlanTranspose is the index half of TransposeDist; rows needs no values.
// Entry (i,j) owned here is announced to the owner of row j of Gᵀ (= owner
// of global column j). The announced entries are bucketed by row; sources
// are taken in rank order, each delivers its entries by ascending row i, so
// every row of Gᵀ is filled with ascending columns and nothing is sorted.
// Collective.
func PlanTranspose(c *simmpi.Comm, l *Layout, lo, hi int, rows *sparse.CSR) *TransposePlan {
	size := c.Size()
	rank := c.Rank()
	if rlo, rhi := l.Range(rank); rlo != lo || rhi != hi || rows.Rows != hi-lo {
		panic(fmt.Sprintf("distmat: rank %d transposes %d rows as [%d,%d), layout says [%d,%d)", rank, rows.Rows, lo, hi, rlo, rhi))
	}
	counts := make([]int64, size)
	own := 0 // owner of the column last looked at
	for _, gj := range rows.ColIdx {
		own = ownerNear(l, gj, own)
		counts[own]++
	}
	all := c.AllgatherInt64(counts)
	t := &TransposePlan{RowPtr: make([]int, hi-lo+1), to: make([]int, rows.NNZ()), send: make([][]int, size), recv: make([][]int, size)}
	// Announce what leaves this rank: (i, j) pairs per destination.
	flat := make([][]int, size)
	for p, n := range counts {
		if p != rank && n > 0 {
			flat[p] = make([]int, 0, 2*n)
			t.send[p] = make([]int, 0, n)
		}
	}
	for li := 0; li < rows.Rows; li++ {
		for e := rows.RowPtr[li]; e < rows.RowPtr[li+1]; e++ {
			gj := rows.ColIdx[e]
			if own = ownerNear(l, gj, own); own != rank {
				flat[own] = append(flat[own], lo+li, gj)
				t.send[own] = append(t.send[own], e)
			} else {
				t.RowPtr[gj-lo+1]++
			}
		}
	}
	for p := 0; p < size; p++ {
		if p != rank && counts[p] > 0 {
			c.SendInts(p, tagTransp, flat[p])
		}
	}
	// What arrives, per source rank, in the same (i, j) layout.
	in := make([][]int, size)
	for r := 0; r < size; r++ {
		if r == rank || all[r*size+rank] == 0 {
			continue
		}
		f := c.RecvInts(r, tagTransp)
		rlo, rhi := l.Range(r)
		for k := 0; k+1 < len(f); k += 2 {
			gi, gj := f[k], f[k+1]
			if gj < lo || gj >= hi || gi < rlo || gi >= rhi {
				panic(fmt.Sprintf("distmat: rank %d sent rank %d entry (%d,%d), outside rows [%d,%d) x columns [%d,%d)",
					r, rank, gi, gj, rlo, rhi, lo, hi))
			}
			t.RowPtr[gj-lo+1]++
		}
		in[r] = f
	}
	for i := 0; i < hi-lo; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	t.ColIdx = make([]int, t.RowPtr[hi-lo])
	next := append([]int(nil), t.RowPtr[:hi-lo]...)
	place := func(row, col int) int {
		p := next[row]
		next[row]++
		t.ColIdx[p] = col // transposed: row j, column i
		return p
	}
	for r := 0; r < size; r++ {
		if r == rank {
			for li := 0; li < rows.Rows; li++ {
				for e := rows.RowPtr[li]; e < rows.RowPtr[li+1]; e++ {
					if gj := rows.ColIdx[e]; gj >= lo && gj < hi {
						t.to[e] = place(gj-lo, lo+li)
					} else {
						t.to[e] = -1
					}
				}
			}
			continue
		}
		t.recv[r] = make([]int, len(in[r])/2)
		for k := range t.recv[r] {
			t.recv[r][k] = place(in[r][2*k+1]-lo, in[r][2*k])
		}
	}
	return t
}

// Values is the value half of the transpose: vals are the entries of the
// rank's rows of a matrix with the planned pattern; the result are the
// entries of its rows of the transpose, over RowPtr and ColIdx. Collective.
func (t *TransposePlan) Values(c *simmpi.Comm, vals []float64) []float64 {
	if len(vals) != len(t.to) {
		panic(fmt.Sprintf("distmat: transpose planned for %d entries, got %d values", len(t.to), len(vals)))
	}
	for p, es := range t.send {
		if len(es) == 0 {
			continue
		}
		buf := make([]float64, len(es))
		for k, e := range es {
			buf[k] = vals[e]
		}
		c.SendFloats(p, tagTransp, buf)
	}
	out := make([]float64, len(t.ColIdx))
	for e, p := range t.to {
		if p >= 0 {
			out[p] = vals[e]
		}
	}
	for r, ps := range t.recv {
		if len(ps) == 0 {
			continue
		}
		in := c.RecvFloats(r, tagTransp)
		if len(in) != len(ps) {
			panic(fmt.Sprintf("distmat: rank %d sent rank %d %d values for %d planned entries", r, c.Rank(), len(in), len(ps)))
		}
		for k, p := range ps {
			out[p] = in[k]
		}
	}
	return out
}

// SizeBytes is what the plan's index lists occupy.
func (t *TransposePlan) SizeBytes() int64 {
	n := len(t.RowPtr) + len(t.ColIdx) + len(t.to)
	for p := range t.send {
		n += len(t.send[p]) + len(t.recv[p])
	}
	return 8 * int64(n)
}

// NNZImbalanceIndex computes the paper's imbalance index for per-rank entry
// counts: average entries / maximum entries (≤ 1; 1 means balanced).
// Collective.
func NNZImbalanceIndex(c *simmpi.Comm, localNNZ int64) float64 {
	sums := c.AllreduceSumInt64(localNNZ)
	maxs := c.AllreduceMaxInt64(localNNZ)
	if maxs[0] == 0 {
		return 1
	}
	avg := float64(sums[0]) / float64(c.Size())
	return avg / float64(maxs[0])
}
