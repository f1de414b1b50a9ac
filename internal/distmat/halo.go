package distmat

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
)

// Message tags used by the distributed kernels. Distinct tags per protocol
// phase turn cross-phase bugs into immediate tag-mismatch panics.
const (
	tagPlanIdx  = 101 // halo plan construction: index lists
	tagHaloData = 102 // halo update values
	tagRowMeta  = 103 // remote row gather: row lengths
	tagRowCols  = 104 // remote row gather: column indices
	tagRowVals  = 105 // remote row gather: values
	tagTransp   = 106 // distributed transpose payloads
	tagNAPUp    = 107 // node-aware exchange: member → node leader gather
	tagNAPInter = 108 // node-aware exchange: leader → leader combined message
	tagNAPDown  = 109 // node-aware exchange: node leader → member scatter
)

// Localized is the kernel-ready view of a rank's rows: column indices are
// remapped so that locals occupy [0, NLocal) (global g → g-lo) and halo
// columns occupy [NLocal, NLocal+len(Halo)), with Halo[k] recording the
// global index of halo slot k. Halo is sorted ascending.
type Localized struct {
	Lo, Hi int   // global row range
	Halo   []int // global indices of halo columns, sorted
	M      *sparse.CSR
	// m32 is the lazily-narrowed float32 view of M used by mixed-precision
	// solves. Unexported (gob ships only the schedule above) and built at
	// most once even when concurrent solves share the Localized view.
	m32     *sparse.CSR32
	m32Once sync.Once
	// rotated lists the rows with entries below the local column range, as
	// (row, entries below, entries inside) triples: the rows whose values
	// sit in another order here than in the rows they were localized from,
	// and how WithValues puts them right. unsortedInput says that a row
	// arrived unsorted and was sorted here, so that its values no longer
	// follow from the input order alone.
	rotated       []int
	unsortedInput bool
	// runs is M's run index (sparse.IndexRuns), nil where the pattern's runs
	// save nothing: built once per pattern, shared by every view WithValues
	// makes, and rebuilt by IndexRuns on a view that arrived without it.
	runs *sparse.RunIndex
}

// NLocal returns the number of locally owned rows/columns.
func (lz *Localized) NLocal() int { return lz.Hi - lz.Lo }

// M32 returns the float32 view of M, narrowing it on first use. The view
// shares M's structure arrays and is read-only, so concurrent solves may
// share it like M itself.
func (lz *Localized) M32() *sparse.CSR32 {
	lz.m32Once.Do(func() { lz.m32 = sparse.NewCSR32(lz.M) })
	return lz.m32
}

// Runs returns the run index the 1-wide products walk, nil when they walk
// the entries.
func (lz *Localized) Runs() *sparse.RunIndex { return lz.runs }

// IndexRuns builds the run index of a view that arrived without one: gob
// ships the exported fields only.
func (lz *Localized) IndexRuns() { lz.runs = sparse.IndexRuns(lz.M.RowPtr, lz.M.ColIdx) }

// Localize remaps a local-rows matrix (global column indices) into the
// local+halo column numbering. Rows without values (nil Val) localize to a
// structure without values, to be completed by WithValues.
func Localize(lo, hi int, rows *sparse.CSR) *Localized {
	var halo []int
	for _, g := range rows.ColIdx {
		if g < lo || g >= hi {
			halo = append(halo, g)
		}
	}
	slices.Sort(halo)
	halo = slices.Compact(halo)
	nl := hi - lo
	m := &sparse.CSR{
		Rows:   rows.Rows,
		Cols:   nl + len(halo),
		RowPtr: rows.RowPtr,
		ColIdx: make([]int, rows.NNZ()),
	}
	if rows.Val != nil {
		m.Val = make([]float64, rows.NNZ())
	}
	lz := &Localized{Lo: lo, Hi: hi, Halo: halo, M: m}
	slot := func(g int) int { return nl + sort.SearchInts(halo, g) }
	for i := 0; i < m.Rows; i++ {
		p, q := m.RowPtr[i], m.RowPtr[i+1]
		cols, idx := rows.ColIdx[p:q], m.ColIdx[p:q]
		// In a row sorted by global column the entries below lo come first,
		// then the local ones, then those from hi up.
		below, local, sorted := 0, 0, true
		for k, g := range cols {
			if k > 0 && g <= cols[k-1] {
				sorted = false
			}
			if g < lo {
				below++
			} else if g < hi {
				local++
			}
		}
		if !sorted {
			for k, g := range cols {
				if g >= lo && g < hi {
					idx[k] = g - lo
				} else {
					idx[k] = slot(g)
				}
			}
			lz.unsortedInput = true
			if m.Val == nil {
				slices.Sort(idx)
				continue
			}
			copy(m.Val[p:q], rows.Val[p:q])
			sparse.SortRowByColumn(idx, m.Val[p:q])
			continue
		}
		// Locals number before every halo slot and halo slots ascend with the
		// global index, so emitting local, below, above keeps the row sorted.
		w := 0
		for _, g := range cols[below : below+local] {
			idx[w] = g - lo
			w++
		}
		for _, g := range cols[:below] {
			idx[w] = slot(g)
			w++
		}
		for _, g := range cols[below+local:] {
			idx[w] = slot(g)
			w++
		}
		if below > 0 {
			lz.rotated = append(lz.rotated, i, below, local)
		}
		if m.Val != nil {
			rotateRow(m.Val[p:q], rows.Val[p:q], below, local)
		}
	}
	lz.IndexRuns()
	return lz
}

// rotateRow moves one row's values from global-column order (below, local,
// above) into localized order (local, below, above).
func rotateRow(dst, src []float64, below, local int) {
	n := copy(dst, src[below:below+local])
	n += copy(dst[n:], src[:below])
	copy(dst[n:], src[below+local:])
}

// WithValues returns a view that shares lz's structure — row pointers,
// localized columns, halo list — over other values: vals are the entries of
// the rows lz was localized from, row by row in ascending global column, as
// a matrix with the same pattern stores them. Where no row reaches below
// the local range the two orders are one and the view shares vals too;
// otherwise its values are a copy with the rows that do put right.
func (lz *Localized) WithValues(vals []float64) *Localized {
	if lz.unsortedInput {
		panic("distmat: WithValues on a view localized from rows that were not sorted by column")
	}
	m := lz.M
	if len(vals) != m.NNZ() {
		panic(fmt.Sprintf("distmat: WithValues got %d values for %d entries", len(vals), m.NNZ()))
	}
	if len(lz.rotated) > 0 {
		src := vals
		vals = slices.Clone(src)
		for t := 0; t < len(lz.rotated); t += 3 {
			p, q := m.RowPtr[lz.rotated[t]], m.RowPtr[lz.rotated[t]+1]
			rotateRow(vals[p:q], src[p:q], lz.rotated[t+1], lz.rotated[t+2])
		}
	}
	return &Localized{Lo: lz.Lo, Hi: lz.Hi, Halo: lz.Halo, rotated: lz.rotated, runs: lz.runs,
		M: &sparse.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: vals}}
}

// HaloPlan is a rank's halo-update schedule: which locally-owned unknowns it
// sends to which peers, and which remote unknowns it receives into which
// halo slots. Peers appear in ascending rank order.
type HaloPlan struct {
	SendPeers                [][]int // [peer] -> local row indices (0-based within rank) to send
	RecvPeers                [][]int // [peer] -> halo slot indices to fill
	sendPeerIDs, recvPeerIDs []int
	// Node-aware routing state (see nodeaware.go). rank is the owning rank,
	// topo the two-level topology the plan was built under, and needCounts
	// the full size×size need matrix (needCounts[d*size+s] = values rank d
	// receives from rank s per exchange) captured for free from
	// BuildHaloPlan's allgather — everything the NAP relay schedule is
	// derived from, with zero extra communication. nodeAware selects the
	// aggregated protocol; it defaults to on whenever the topology has
	// multi-rank nodes and can be toggled with SetNodeAware for flat-plan
	// baselines under the same topology.
	rank       int
	topo       simmpi.Topology
	needCounts []int64
	nodeAware  bool
	nap        *napSched
	// f32 selects the half-width wire format: halo values are narrowed to
	// float32 at the gather, travel (and are metered) at 4 bytes each, and
	// are widened back on scatter. The schedule is precision-independent.
	f32 bool
	// ex is the exchange state — primitives and reusable buffers — for the
	// current width, built on first use (see exchange.go).
	ex exchanger
	// async is the reusable handle for StartExchange (one outstanding
	// nonblocking exchange per plan at a time).
	async ExchangeHandle
}

// SetF32 selects (or clears) the half-width float32 halo wire format for
// this plan. Mixed-precision solves set it on the plans of their inner
// operators; the FP64 outer-loop operators keep the full-width default.
func (p *HaloPlan) SetF32(on bool) {
	if on != p.f32 {
		p.f32, p.ex = on, nil
	}
}

// SendPeerIDs returns the sorted ranks this plan sends to.
func (p *HaloPlan) SendPeerIDs() []int { return p.sendPeerIDs }

// RecvPeerIDs returns the sorted ranks this plan receives from.
func (p *HaloPlan) RecvPeerIDs() []int { return p.recvPeerIDs }

// RecvCount returns the total number of halo values received per update.
func (p *HaloPlan) RecvCount() int {
	n := 0
	for _, l := range p.RecvPeers {
		n += len(l)
	}
	return n
}

// SendCount returns the total number of values sent per update.
func (p *HaloPlan) SendCount() int {
	n := 0
	for _, l := range p.SendPeers {
		n += len(l)
	}
	return n
}

// BuildHaloPlan constructs the halo-update schedule for the given halo set.
// All ranks must call it collectively. The exchange of index lists is the
// setup-phase communication METIS-based codes also perform once.
func BuildHaloPlan(c *simmpi.Comm, l *Layout, lz *Localized) *HaloPlan {
	size := c.Size()
	rank := c.Rank()
	plan := &HaloPlan{
		SendPeers: make([][]int, size),
		RecvPeers: make([][]int, size),
		rank:      rank,
		topo:      c.Topology(),
	}
	plan.nodeAware = !plan.topo.Flat()
	// Group my needed globals by owner.
	needByOwner := make([][]int, size)
	for slotIdx, g := range lz.Halo {
		owner := l.Owner(g)
		if owner == rank {
			panic(fmt.Sprintf("distmat: rank %d has local global %d in halo", rank, g))
		}
		needByOwner[owner] = append(needByOwner[owner], g)
		plan.RecvPeers[owner] = append(plan.RecvPeers[owner], slotIdx)
	}
	// Everyone learns the full need-count matrix.
	counts := make([]int64, size)
	for p := 0; p < size; p++ {
		counts[p] = int64(len(needByOwner[p]))
	}
	all := c.AllgatherInt64(counts) // all[r*size+p] = count rank r needs from p
	plan.needCounts = all
	// Send my request lists to owners.
	for p := 0; p < size; p++ {
		if p != rank && len(needByOwner[p]) > 0 {
			c.SendInts(p, tagPlanIdx, needByOwner[p])
		}
	}
	// Receive request lists from ranks that need my rows.
	for r := 0; r < size; r++ {
		if r == rank || all[r*size+rank] == 0 {
			continue
		}
		wanted := c.RecvInts(r, tagPlanIdx)
		local := make([]int, len(wanted))
		for k, g := range wanted {
			if g < lz.Lo || g >= lz.Hi {
				panic(fmt.Sprintf("distmat: rank %d asked rank %d for non-local row %d", r, rank, g))
			}
			local[k] = g - lz.Lo
		}
		plan.SendPeers[r] = local
	}
	for p := 0; p < size; p++ {
		if len(plan.SendPeers[p]) > 0 {
			plan.sendPeerIDs = append(plan.sendPeerIDs, p)
		}
		if len(plan.RecvPeers[p]) > 0 {
			plan.recvPeerIDs = append(plan.recvPeerIDs, p)
		}
	}
	return plan
}

// NewHaloPlanFromSchedule rebuilds a plan from its immutable schedule — the
// per-peer send/receive index lists — recomputing the derived peer-ID sets.
// This is the deserialization constructor: a schedule shipped to a worker
// process (plain exported slices, gob-friendly) comes back as a plan
// equivalent to BuildHaloPlan's output without redoing the collective index
// exchange. The lists are referenced, not copied, like Clone.
func NewHaloPlanFromSchedule(sendPeers, recvPeers [][]int) *HaloPlan {
	p := &HaloPlan{SendPeers: sendPeers, RecvPeers: recvPeers}
	for peer := range sendPeers {
		if len(sendPeers[peer]) > 0 {
			p.sendPeerIDs = append(p.sendPeerIDs, peer)
		}
	}
	for peer := range recvPeers {
		if len(recvPeers[peer]) > 0 {
			p.recvPeerIDs = append(p.recvPeerIDs, peer)
		}
	}
	return p
}

// NewHaloPlanFromScheduleTopo is NewHaloPlanFromSchedule with a two-level
// topology re-attached: needCounts is the need matrix BuildHaloPlan captured
// (see NeedCounts) and rank the owning rank. Node-aware routing is enabled
// whenever topo has multi-rank nodes, exactly as BuildHaloPlan under a
// topology-carrying Comm would — so a prepared system serialized once can be
// solved under any per-request topology without redoing the setup exchange.
func NewHaloPlanFromScheduleTopo(sendPeers, recvPeers [][]int, needCounts []int64, rank int, topo simmpi.Topology) *HaloPlan {
	p := NewHaloPlanFromSchedule(sendPeers, recvPeers)
	p.rank = rank
	p.topo = topo
	p.needCounts = needCounts
	p.nodeAware = !topo.Flat()
	return p
}

// NeedCounts returns the plan's need matrix (needCounts[d*size+s] = values
// rank d receives from rank s per exchange), or nil for schedule-built plans
// that never captured one. Shared slice; callers must not mutate.
func (p *HaloPlan) NeedCounts() []int64 { return p.needCounts }

// SetNodeAware toggles node-aware routing. Enabling it on a plan without a
// multi-rank topology or a need matrix panics: silently falling back to the
// flat schedule would fake the metered structural claims built on the
// toggle. Disabling keeps the topology attached (the meter still classifies
// intra vs inter), which is exactly the flat-plan baseline the node-aware
// benchmarks compare against.
func (p *HaloPlan) SetNodeAware(on bool) {
	if on && (p.topo.Flat() || p.needCounts == nil) {
		panic("distmat: SetNodeAware(true) needs a multi-rank topology and a need matrix (build with BuildHaloPlan under a topology Comm or NewHaloPlanFromScheduleTopo)")
	}
	p.nodeAware = on
}

// Clone returns a plan that shares this plan's immutable schedule (peer
// sets and index lists, which no exchange mutates) but owns fresh send
// buffers and async state. The per-rank schedule of a matrix is computed
// collectively once (BuildHaloPlan) and is then pure data; cloning lets a
// preconditioner cache hand each concurrent solve its own plan instance
// without redoing the setup-phase index exchange — the buffers are the only
// mutable state, and each clone grows its own lazily.
func (p *HaloPlan) Clone() *HaloPlan {
	return &HaloPlan{
		SendPeers:   p.SendPeers,
		RecvPeers:   p.RecvPeers,
		sendPeerIDs: p.sendPeerIDs,
		recvPeerIDs: p.recvPeerIDs,
		rank:        p.rank,
		topo:        p.topo,
		needCounts:  p.needCounts,
		nodeAware:   p.nodeAware,
		f32:         p.f32,
		nap:         p.nap, // immutable once derived; buffers are NOT shared
	}
}

// RecvGlobals returns, per peer rank, the global indices of the unknowns
// this rank receives in each halo update.
func (p *HaloPlan) RecvGlobals(lz *Localized) [][]int {
	out := make([][]int, len(p.RecvPeers))
	for peer, slots := range p.RecvPeers {
		for _, s := range slots {
			out[peer] = append(out[peer], lz.Halo[s])
		}
	}
	return out
}

// SendGlobals returns, per peer rank, the global indices of the unknowns
// this rank sends in each halo update.
func (p *HaloPlan) SendGlobals(lz *Localized) [][]int {
	out := make([][]int, len(p.SendPeers))
	for peer, locals := range p.SendPeers {
		for _, li := range locals {
			out[peer] = append(out[peer], lz.Lo+li)
		}
	}
	return out
}

// GlobalsEqual reports whether two per-peer global index lists describe the
// same exchanged unknown sets (order-insensitive within a peer).
func GlobalsEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		if len(a[p]) != len(b[p]) {
			return false
		}
		x := append([]int(nil), a[p]...)
		y := append([]int(nil), b[p]...)
		sort.Ints(x)
		sort.Ints(y)
		for k := range x {
			if x[k] != y[k] {
				return false
			}
		}
	}
	return true
}

// PlanEqual reports whether two plans describe exactly the same
// communication scheme (same peers, same unknown lists in the same order).
// The FSAIE-Comm invariance tests compare plans with this.
func PlanEqual(a, b *HaloPlan) bool {
	eq := func(x, y [][]int) bool {
		if len(x) != len(y) {
			return false
		}
		for p := range x {
			if len(x[p]) != len(y[p]) {
				return false
			}
			for k := range x[p] {
				if x[p][k] != y[p][k] {
					return false
				}
			}
		}
		return true
	}
	return eq(a.SendPeers, b.SendPeers) && eq(a.RecvPeers, b.RecvPeers)
}
