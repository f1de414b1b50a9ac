package archmodel

import (
	"testing"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"skylake", "a64fx", "zen2"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != name {
			t.Fatalf("profile name %q, want %q", p.Name, name)
		}
	}
	if _, err := ByName("m1"); err == nil {
		t.Fatal("unknown arch accepted")
	}
}

func TestLineSizesMatchPaper(t *testing.T) {
	if Skylake.LineBytes != 64 || Zen2.LineBytes != 64 {
		t.Fatal("Skylake/Zen2 must have 64B lines")
	}
	if A64FX.LineBytes != 256 {
		t.Fatal("A64FX must have 256B lines")
	}
}

func TestProcessCacheGeometry(t *testing.T) {
	for _, p := range []Profile{Skylake, A64FX, Zen2} {
		c := p.NewProcessCache()
		if c.LineBytes() != p.LineBytes {
			t.Fatalf("%s: cache line %d, want %d", p.Name, c.LineBytes(), p.LineBytes)
		}
	}
	// Odd core counts still produce a valid power-of-two geometry.
	c := Skylake.WithCoresPerProcess(3).NewProcessCache()
	if c == nil {
		t.Fatal("nil cache")
	}
}

func TestWithCoresPerProcess(t *testing.T) {
	p := Skylake.WithCoresPerProcess(48)
	if p.CoresPerProcess != 48 || Skylake.CoresPerProcess == 48 {
		t.Fatal("WithCoresPerProcess mutated original or failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cores=0 accepted")
		}
	}()
	Skylake.WithCoresPerProcess(0)
}

// Add accumulates another cost into this one.
func (r *RankCost) Add(o RankCost) {
	r.Flops += o.Flops
	r.StreamBytes += o.StreamBytes
	r.CacheMisses += o.CacheMisses
	r.CommBytes += o.CommBytes
	r.CommMsgs += o.CommMsgs
	r.IntraCommBytes += o.IntraCommBytes
	r.IntraCommMsgs += o.IntraCommMsgs
}

// SolveTime returns the modeled time of a solve: iterations times the
// slowest rank's per-iteration time (ranks synchronize at the dot products
// every iteration, so the maximum governs).
func (p Profile) SolveTime(iters int, perRank []RankCost) float64 {
	worst := 0.0
	for _, rc := range perRank {
		if t := p.Time(rc); t > worst {
			worst = t
		}
	}
	return float64(iters) * worst
}

func TestTimeMonotone(t *testing.T) {
	base := RankCost{Flops: 1e6, CacheMisses: 1e3, CommBytes: 1e4, CommMsgs: 10}
	t0 := Skylake.Time(base)
	for _, delta := range []RankCost{
		{Flops: 1e6}, {CacheMisses: 1e3}, {CommBytes: 1e5}, {CommMsgs: 100},
	} {
		more := base
		more.Add(delta)
		if Skylake.Time(more) <= t0 {
			t.Fatalf("cost not monotone in %+v", delta)
		}
	}
}

func TestMoreCoresFasterFlops(t *testing.T) {
	rc := RankCost{Flops: 1e9}
	t1 := Skylake.WithCoresPerProcess(1).Time(rc)
	t8 := Skylake.WithCoresPerProcess(8).Time(rc)
	if t8 >= t1 {
		t.Fatalf("8 cores (%g) not faster than 1 (%g)", t8, t1)
	}
}

func TestSolveTimeUsesWorstRank(t *testing.T) {
	costs := []RankCost{{Flops: 1e6}, {Flops: 5e6}, {Flops: 2e6}}
	got := Skylake.SolveTime(10, costs)
	want := 10 * Skylake.Time(costs[1])
	if got != want {
		t.Fatalf("SolveTime = %g, want %g", got, want)
	}
	if Skylake.SolveTime(10, nil) != 0 {
		t.Fatal("empty ranks should cost 0")
	}
}

func TestGFlopsPerProcess(t *testing.T) {
	rc := RankCost{Flops: 4e9} // exactly one second at 4 GF/s with 1 core
	p := Skylake.WithCoresPerProcess(1)
	if g := p.GFlopsPerProcess(rc); g != 4 {
		t.Fatalf("GFlops = %v, want 4", g)
	}
	// Misses reduce achieved GFLOP/s.
	rc2 := rc
	rc2.CacheMisses = 1e8
	if p.GFlopsPerProcess(rc2) >= 4 {
		t.Fatal("misses did not reduce achieved rate")
	}
	if p.GFlopsPerProcess(RankCost{}) != 0 {
		t.Fatal("zero work should report 0")
	}
}

func TestComputeCommSplitSumsToTime(t *testing.T) {
	rc := RankCost{Flops: 1e6, StreamBytes: 1e7, CacheMisses: 1e3, CommBytes: 1e4, CommMsgs: 10}
	for _, p := range []Profile{Skylake, A64FX, Zen2} {
		if got, want := p.ComputeTime(rc)+p.CommTime(rc), p.Time(rc); got != want {
			t.Fatalf("%s: ComputeTime+CommTime = %g, Time = %g", p.Name, got, want)
		}
	}
	if Skylake.CommTime(RankCost{Flops: 1e9}) != 0 {
		t.Fatal("CommTime charged for compute")
	}
	if Skylake.ComputeTime(RankCost{CommMsgs: 5, CommBytes: 1e6}) != 0 {
		t.Fatal("ComputeTime charged for communication")
	}
}

// With nothing to hide its communication, the report degenerates to the
// fully-exposed model.
func TestOverlapReportNoHidingEqualsTime(t *testing.T) {
	rc := RankCost{Flops: 1e6, StreamBytes: 1e7, CacheMisses: 1e3, CommBytes: 1e4, CommMsgs: 10}
	oc := OverlapCost{
		Compute: RankCost{Flops: rc.Flops, StreamBytes: rc.StreamBytes, CacheMisses: rc.CacheMisses},
		Windows: []CommWindow{{Name: "reduction", Comm: RankCost{CommBytes: rc.CommBytes, CommMsgs: rc.CommMsgs}}},
	}
	if got, want := Skylake.OverlapReport(oc).TotalSec, Skylake.Time(rc); got != want {
		t.Fatalf("TotalSec = %g, want Time = %g", got, want)
	}
}

// A window whose hiding compute exceeds its communication contributes
// nothing; one whose compute falls short contributes exactly the residue.
func TestOverlapCreditClamps(t *testing.T) {
	p := Skylake
	comm := RankCost{CommMsgs: 4, CommBytes: 4096}
	bigHide := RankCost{Flops: 1e9}   // compute ≫ comm
	smallHide := RankCost{Flops: 1e3} // compute ≪ comm
	compute := RankCost{Flops: 2e9}

	full := p.OverlapReport(OverlapCost{Compute: compute, Windows: []CommWindow{{Name: "halo", Comm: comm, Hide: bigHide}}}).TotalSec
	if full != p.ComputeTime(compute) {
		t.Fatalf("fully hidden window still charged: %g vs %g", full, p.ComputeTime(compute))
	}
	part := p.OverlapReport(OverlapCost{Compute: compute, Windows: []CommWindow{{Name: "halo", Comm: comm, Hide: smallHide}}}).TotalSec
	want := p.ComputeTime(compute) + p.CommTime(comm) - p.ComputeTime(smallHide)
	if diff := part - want; diff > 1e-18 || diff < -1e-18 {
		t.Fatalf("partial credit: got %g, want %g", part, want)
	}
}

// Overlap can only help: for the same traffic, the overlapped schedule is
// never modeled slower than the exposed one, and strictly faster as soon as
// any window has both traffic and hiding compute.
func TestOverlapNeverSlower(t *testing.T) {
	p := A64FX
	compute := RankCost{Flops: 5e7, StreamBytes: 1e8}
	halo := RankCost{CommMsgs: 6, CommBytes: 48 * 1024}
	red := RankCost{CommMsgs: 2, CommBytes: 48}
	exposedAll := RankCost{Flops: compute.Flops, StreamBytes: compute.StreamBytes,
		CommMsgs: halo.CommMsgs + red.CommMsgs, CommBytes: halo.CommBytes + red.CommBytes}
	oc := OverlapCost{
		Compute: compute,
		Windows: []CommWindow{{Name: "halo", Comm: halo, Hide: RankCost{Flops: 4e7}}, {Name: "reduction", Comm: red}},
	}
	if got := p.OverlapReport(oc).TotalSec; got >= p.Time(exposedAll) {
		t.Fatalf("overlapped %g not faster than exposed %g", got, p.Time(exposedAll))
	}
}

// The report's terms are the scalar model's: its compute is ComputeTime,
// each window's raw time CommTime and its hidden part Raw − Exposed, and
// TotalSec the compute plus every window's exposed time, summed in window
// order. A window with ample hiding compute is fully hidden, one with none
// fully exposed.
func TestOverlapReportSplitsWindows(t *testing.T) {
	oc := OverlapCost{
		Compute: RankCost{Flops: 2e6, StreamBytes: 1e7, CacheMisses: 2e3},
		Windows: []CommWindow{
			// Tiny traffic under a huge hiding window: fully hidden.
			{Name: "halo", Comm: RankCost{CommBytes: 64, CommMsgs: 1}, Hide: RankCost{Flops: 1e6}},
			// Heavy traffic with no compute to hide it: fully exposed.
			{Name: "reduction", Comm: RankCost{CommBytes: 1e6, CommMsgs: 100}},
		},
	}
	for _, p := range []Profile{Skylake, A64FX, Zen2} {
		rep := p.OverlapReport(oc)
		if rep.ComputeSec != p.ComputeTime(oc.Compute) {
			t.Fatalf("%s: compute term does not match the scalar model: %+v", p.Name, rep)
		}
		if len(rep.Windows) != 2 {
			t.Fatalf("%s: %d windows, want 2", p.Name, len(rep.Windows))
		}
		sum := rep.ComputeSec
		for i, w := range rep.Windows {
			if w.RawSec != p.CommTime(oc.Windows[i].Comm) || w.HideAvail != p.ComputeTime(oc.Windows[i].Hide) {
				t.Fatalf("%s: window %q raw %g / hide %g do not match its input", p.Name, w.Name, w.RawSec, w.HideAvail)
			}
			if w.HiddenSec != w.RawSec-w.ExposedSec {
				t.Fatalf("%s: window %q hidden %g != raw %g - exposed %g", p.Name, w.Name, w.HiddenSec, w.RawSec, w.ExposedSec)
			}
			if w.HiddenSec < 0 || w.ExposedSec < 0 {
				t.Fatalf("%s: window %q negative component: %+v", p.Name, w.Name, w)
			}
			sum += w.ExposedSec
		}
		if rep.TotalSec != sum {
			t.Fatalf("%s: TotalSec %g != compute + exposed windows %g", p.Name, rep.TotalSec, sum)
		}
		halo, red := rep.Windows[0], rep.Windows[1]
		if halo.ExposedSec != 0 || halo.HiddenSec != halo.RawSec {
			t.Fatalf("%s: fully hidable halo window not fully hidden: %+v", p.Name, halo)
		}
		if red.HiddenSec != 0 || red.ExposedSec != red.RawSec {
			t.Fatalf("%s: unhidable reduction window not fully exposed: %+v", p.Name, red)
		}
	}
}

func TestOverlapReportScale(t *testing.T) {
	oc := OverlapCost{
		Compute: RankCost{Flops: 1e6},
		Windows: []CommWindow{
			{Name: "halo", Comm: RankCost{CommBytes: 1e5, CommMsgs: 5}, Hide: RankCost{Flops: 5e5}},
			{Name: "reduction", Comm: RankCost{CommBytes: 1e4, CommMsgs: 10}},
		},
	}
	rep := Skylake.OverlapReport(oc)
	got := rep.Scale(7)
	if got.TotalSec != 7*rep.TotalSec || got.ComputeSec != 7*rep.ComputeSec {
		t.Fatalf("Scale(7) scalar fields wrong: %+v vs %+v", got, rep)
	}
	for i, w := range got.Windows {
		o := rep.Windows[i]
		if w.RawSec != 7*o.RawSec || w.HideAvail != 7*o.HideAvail || w.HiddenSec != 7*o.HiddenSec || w.ExposedSec != 7*o.ExposedSec {
			t.Fatalf("Scale(7) window %d wrong: %+v vs %+v", i, w, o)
		}
	}
	if len(rep.Windows) != 2 || rep.Windows[0].HiddenSec <= 0 {
		t.Fatalf("test premise: a hidden window expected, got %+v", rep.Windows)
	}
	// Scaling must not alias the receiver's windows.
	got.Windows[0].RawSec = -1
	if rep.Windows[0].RawSec == -1 {
		t.Fatal("Scale aliased the receiver's windows")
	}
}
