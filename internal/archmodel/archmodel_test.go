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

// A report of one window is the scalar model: compute plus its α–β time.
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

// The report's terms are the scalar model's: its compute is ComputeTime,
// each window's time CommTime, and TotalSec the compute plus every window's
// time, summed in window order.
func TestOverlapReportSplitsWindows(t *testing.T) {
	oc := OverlapCost{
		Compute: RankCost{Flops: 2e6, StreamBytes: 1e7, CacheMisses: 2e3},
		Windows: []CommWindow{
			{Name: "halo", Comm: RankCost{CommBytes: 64, CommMsgs: 1}},
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
			if w.Name != oc.Windows[i].Name || w.RawSec != p.CommTime(oc.Windows[i].Comm) {
				t.Fatalf("%s: window %q raw %g does not match its input", p.Name, w.Name, w.RawSec)
			}
			sum += w.RawSec
		}
		if rep.TotalSec != sum {
			t.Fatalf("%s: TotalSec %g != compute + windows %g", p.Name, rep.TotalSec, sum)
		}
	}
}

func TestOverlapReportScale(t *testing.T) {
	oc := OverlapCost{
		Compute: RankCost{Flops: 1e6},
		Windows: []CommWindow{
			{Name: "halo", Comm: RankCost{CommBytes: 1e5, CommMsgs: 5}},
			{Name: "reduction", Comm: RankCost{CommBytes: 1e4, CommMsgs: 10}},
		},
	}
	rep := Skylake.OverlapReport(oc)
	got := rep.Scale(7)
	if got.TotalSec != 7*rep.TotalSec || got.ComputeSec != 7*rep.ComputeSec {
		t.Fatalf("Scale(7) scalar fields wrong: %+v vs %+v", got, rep)
	}
	for i, w := range got.Windows {
		if o := rep.Windows[i]; w.Name != o.Name || w.RawSec != 7*o.RawSec {
			t.Fatalf("Scale(7) window %d wrong: %+v vs %+v", i, w, o)
		}
	}
	// Scaling must not alias the receiver's windows.
	got.Windows[0].RawSec = -1
	if rep.Windows[0].RawSec == -1 {
		t.Fatal("Scale aliased the receiver's windows")
	}
}
