package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/simmpi"
)

// withoutRuns is op over a view of the same rows without a run index — the
// view a gob decode gives — and a clone of its plan, so that its products
// walk entries.
func withoutRuns(op *distmat.Op, f32 bool) *distmat.Op {
	lz := op.LZ
	bare := distmat.NewOpFromParts(&distmat.Localized{Lo: lz.Lo, Hi: lz.Hi, Halo: lz.Halo, M: lz.M}, op.Plan.Clone())
	bare.SetF32(f32)
	return bare
}

// TestDistSplitRunsBitIdentical: the factor apply z = Gᵀ(G·r) walking
// column runs equals the apply walking entries bit for bit, at 2, 3 and 4
// ranks, for FSAI, FSAIE and FSAIE-Comm at Filter 0, 0.01 and 0.05, in FP64
// and FP32. Up to Filter 0.01 the FSAIE family's factors are mostly runs and
// must get run indexes on every rank, so that the runs are what is compared;
// a filter of 0.05 drops enough of the extension that runs save nothing on
// this system, and plain FSAI's are never mostly runs, so those cells hold
// the entry walk to itself (the sparse fuzz holds runs to RowDot on every
// pattern).
func TestDistSplitRunsBitIdentical(t *testing.T) {
	a := matgen.Poisson3D(18, 17, 16)
	for _, nranks := range []int{2, 3, 4} {
		pa, l := distSetup(t, a, nranks)
		for _, cfg := range []Config{
			{Method: FSAI}, {Method: FSAIE}, {Method: FSAIEComm},
			{Method: FSAIE, Filter: 0.01}, {Method: FSAIEComm, Filter: 0.01},
			{Method: FSAI, Filter: 0.05}, {Method: FSAIE, Filter: 0.05}, {Method: FSAIEComm, Filter: 0.05},
		} {
			cfg.LineBytes = 64
			builds, _ := runBuild(t, pa, l, cfg)
			if cfg.Method != FSAI && cfg.Filter <= 0.01 {
				for r, b := range builds {
					if b.GOp.LZ.Runs() == nil || b.GTOp.LZ.Runs() == nil {
						t.Fatalf("%d ranks, %v: rank %d's G or Gᵀ has no run index", nranks, cfg.Method, r)
					}
				}
			}
			for _, f32 := range []bool{false, true} {
				at := fmt.Sprintf("%d ranks, %v, filter %v, float32 %v", nranks, cfg.Method, cfg.Filter, f32)
				_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
					b := builds[c.Rank()]
					g, gt := distmat.NewOpFromParts(b.GOp.LZ, b.GOp.Plan.Clone()), distmat.NewOpFromParts(b.GTOp.LZ, b.GTOp.Plan.Clone())
					g.SetF32(f32)
					gt.SetF32(f32)
					runs, entries := krylov.NewDistSplit(g, gt), krylov.NewDistSplit(withoutRuns(b.GOp, f32), withoutRuns(b.GTOp, f32))
					rng := rand.New(rand.NewSource(int64(7 + c.Rank())))
					nl := b.GOp.LZ.NLocal()
					r, z, want := make([]float64, nl), make([]float64, nl), make([]float64, nl)
					for round := 0; round < 3; round++ {
						for i := range r {
							r[i] = rng.NormFloat64()
						}
						runs.Apply(c, r, z, nil)
						entries.Apply(c, r, want, nil)
						for i := range want {
							if math.Float64bits(z[i]) != math.Float64bits(want[i]) {
								return fmt.Errorf("%s: rank %d, z[%d] = %v walking runs, %v walking entries", at, c.Rank(), i, z[i], want[i])
							}
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestRunIndexIsAPropertyOfThePattern: on the 37³ Poisson system at 2 ranks
// (the benchmark's warm system, unfiltered) FSAIE-Comm's G and Gᵀ are
// mostly column runs and get a run index; A and plain FSAI's G are not and
// walk their entries. A factor of the same pattern with other values — the
// factor phase a Refactor runs — shares its pattern's index.
func TestRunIndexIsAPropertyOfThePattern(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 37³ system twice")
	}
	pa, l := distSetup(t, matgen.Poisson3D(37, 37, 37), 2)
	comm, _ := runBuild(t, pa, l, Config{Method: FSAIEComm, LineBytes: 64})
	plain, _ := runBuild(t, pa, l, Config{Method: FSAI, LineBytes: 64})
	for r := range comm {
		if comm[r].GOp.LZ.Runs() == nil || comm[r].GTOp.LZ.Runs() == nil {
			t.Fatalf("rank %d: FSAIE-Comm G or Gᵀ has no run index", r)
		}
		if comm[r].AOp.LZ.Runs() != nil || plain[r].GOp.LZ.Runs() != nil || plain[r].GTOp.LZ.Runs() != nil {
			t.Fatalf("rank %d: A or plain FSAI's factors got a run index", r)
		}
	}

	_, err := simmpi.Run(2, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		rows := distmat.ExtractLocalRows(pa, lo, hi)
		s, err := Analyse(c, l, rows, Config{Method: FSAIEComm, LineBytes: 64})
		if err != nil {
			return err
		}
		first, err := s.Factor(c, rows.Val, nil)
		if err != nil {
			return err
		}
		scaled := make([]float64, len(rows.Val))
		for k, v := range rows.Val {
			scaled[k] = 3 * v
		}
		again, err := s.Factor(c, scaled, first.Plan)
		if err != nil {
			return err
		}
		if again.GOp.LZ.Runs() != first.GOp.LZ.Runs() || again.GTOp.LZ.Runs() != first.GTOp.LZ.Runs() {
			return fmt.Errorf("rank %d: the second factor built run indexes of its own", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
