package core

import (
	"fmt"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/simmpi"
)

// VerifyCommInvariance checks the paper's central claim for two builds over
// the same layout: the extended build ext must exchange exactly the same
// unknown sets between the same peers as the baseline base for the G
// product, and must not receive any unknown for the Gᵀ product the baseline
// did not already receive. Collective: every rank calls with its own builds;
// all ranks return the same verdict (an error naming the first offending
// rank, or nil).
//
// This is the machine-checkable form of §3's "the same communication scheme
// is used for all extension methods". It holds exactly for unfiltered
// FSAIE-Comm; with filtering the exchanged sets may shrink but never grow,
// which is what this verifies.
func VerifyCommInvariance(c *simmpi.Comm, base, ext *Build) error {
	bad := ""
	if !subsetGlobals(ext.GOp.Plan.RecvGlobals(ext.GOp.LZ), base.GOp.Plan.RecvGlobals(base.GOp.LZ)) {
		bad = "G product receives new unknowns"
	} else if !subsetGlobals(ext.GOp.Plan.SendGlobals(ext.GOp.LZ), base.GOp.Plan.SendGlobals(base.GOp.LZ)) {
		bad = "G product sends new unknowns"
	} else if !subsetGlobals(ext.GTOp.Plan.RecvGlobals(ext.GTOp.LZ), base.GTOp.Plan.RecvGlobals(base.GTOp.LZ)) {
		bad = "Gᵀ product receives new unknowns"
	} else if !subsetGlobals(ext.GTOp.Plan.SendGlobals(ext.GTOp.LZ), base.GTOp.Plan.SendGlobals(base.GTOp.LZ)) {
		bad = "Gᵀ product sends new unknowns"
	}
	mine := 0.0
	if bad != "" {
		mine = float64(c.Rank() + 1)
	}
	worst := simmpi.Allreduce(c, simmpi.Max, mine)[0]
	if worst > 0 {
		if bad != "" && float64(c.Rank()+1) == worst {
			return fmt.Errorf("core: communication invariance violated on rank %d: %s", c.Rank(), bad)
		}
		return fmt.Errorf("core: communication invariance violated on rank %d", int(worst)-1)
	}
	return nil
}

// subsetGlobals reports whether every per-peer unknown of a is present in
// the corresponding peer list of b.
func subsetGlobals(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		have := make(map[int]bool, len(b[p]))
		for _, g := range b[p] {
			have[g] = true
		}
		for _, g := range a[p] {
			if !have[g] {
				return false
			}
		}
	}
	return true
}

// VerifyTrafficInvariance compares metered halo traffic of two distributed
// operators over one exchange: ext must move no more bytes than base. It is
// a pure plan computation (no messages are sent).
func VerifyTrafficInvariance(base, ext *distmat.Op) error {
	if ext.Plan.SendCount() > base.Plan.SendCount() {
		return fmt.Errorf("core: extended plan sends %d unknowns, baseline %d",
			ext.Plan.SendCount(), base.Plan.SendCount())
	}
	if ext.Plan.RecvCount() > base.Plan.RecvCount() {
		return fmt.Errorf("core: extended plan receives %d unknowns, baseline %d",
			ext.Plan.RecvCount(), base.Plan.RecvCount())
	}
	if len(ext.Plan.SendPeerIDs()) > len(base.Plan.SendPeerIDs()) {
		return fmt.Errorf("core: extended plan has %d send peers, baseline %d",
			len(ext.Plan.SendPeerIDs()), len(base.Plan.SendPeerIDs()))
	}
	return nil
}
