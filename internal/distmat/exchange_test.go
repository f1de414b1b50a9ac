package distmat

import (
	"fmt"
	"math/rand"
	"testing"

	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/tcpmpi"
)

// One operator, every product entry point in turn, at changing widths: each
// result must equal the one a fresh operator gives, and the rank's metered
// messages and bytes must be ExchangeCounts summed over the calls. The
// exchange buffers are reused across calls, so a body that sends a buffer
// sized by an earlier, wider call fails here (at e347adc the f64 wire
// panicked on the MulVec after the MulMat: "got 18 values, want 9").
func TestOneOpMixedWidthsAndSchedules(t *testing.T) {
	a := grid2d(9, 9)
	n := a.Rows
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 3*n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	const ranks = 3
	for _, f32 := range []bool{false, true} {
		t.Run(fmt.Sprintf("flat/f32=%v", f32), func(t *testing.T) {
			l := NewUniformLayout(n, ranks)
			_, err := simmpi.Run(ranks, testTimeout, func(c *simmpi.Comm) error {
				lo, hi := l.Range(c.Rank())
				nl := hi - lo
				newOp := func() *Op {
					op := NewOp(c, l, lo, hi, ExtractLocalRows(a, lo, hi))
					op.SetF32(f32)
					return op
				}
				// block is the rank's rows of the first k columns of x.
				block := func(k int) []float64 {
					b := make([]float64, nl*k)
					for i := 0; i < nl; i++ {
						for j := 0; j < k; j++ {
							b[i*k+j] = x[j*n+lo+i]
						}
					}
					return b
				}
				calls := []struct {
					name string
					k    int
					run  func(op *Op, in, out []float64)
				}{
					{"MulMat k=2", 2, func(op *Op, in, out []float64) {
						op.MulMat(c, in, out, 2, nil, NewBatchDistVec(op.LZ, 2), nil)
					}},
					{"MulVec", 1, func(op *Op, in, out []float64) {
						op.MulVec(c, in, out, NewDistVec(op.LZ), nil)
					}},
					{"MulMat k=3", 3, func(op *Op, in, out []float64) {
						op.MulMat(c, in, out, 3, nil, NewBatchDistVec(op.LZ, 3), nil)
					}},
				}
				reused := newOp()
				var wantMsgs, wantBytes int64
				before := c.Meter().RankSnapshot(c.Rank())
				got := make([][]float64, len(calls))
				for i, call := range calls {
					got[i] = make([]float64, nl*call.k)
					call.run(reused, block(call.k), got[i])
					m, b := reused.Plan.ExchangeCounts(call.k)
					wantMsgs += m
					wantBytes += b
				}
				d := c.Meter().RankSnapshot(c.Rank()).Sub(before)
				if d.P2PMessages != wantMsgs || d.P2PBytes != wantBytes {
					return fmt.Errorf("rank %d metered %d messages / %d bytes, ExchangeCounts sums to %d / %d",
						c.Rank(), d.P2PMessages, d.P2PBytes, wantMsgs, wantBytes)
				}
				for i, call := range calls {
					want := make([]float64, nl*call.k)
					call.run(newOp(), block(call.k), want)
					for j := range want {
						if got[i][j] != want[j] {
							return fmt.Errorf("rank %d %s: entry %d is %v on the reused operator, %v on a fresh one",
								c.Rank(), call.name, j, got[i][j], want[j])
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// pack followed by unpack moves exactly float64(V(x)) from the listed rows
// into the listed halo slots, at every width, and touches nothing else —
// for empty peer lists too.
func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for k := 1; k <= 5; k++ {
		for _, nList := range []int{0, 1, 7} {
			checkPackUnpack[float64](t, rng, k, nList)
			checkPackUnpack[float32](t, rng, k, nList)
		}
	}
}

func checkPackUnpack[V float32 | float64](t *testing.T, rng *rand.Rand, k, nList int) {
	t.Helper()
	const nLocal, nHalo = 9, 8
	x := make([]float64, nLocal*k)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	list, slots := rng.Perm(nLocal)[:nList], rng.Perm(nHalo)[:nList]
	buf := make([]V, nList*k)
	if got := pack(buf, x, list, k); got != nList*k {
		t.Fatalf("k=%d: pack wrote %d values, want %d", k, got, nList*k)
	}
	const untouched = -12345.0
	xExt := make([]float64, (nLocal+nHalo)*k)
	for i := range xExt {
		xExt[i] = untouched
	}
	unpack(xExt, nLocal, slots, buf, k)
	want := make([]float64, len(xExt))
	for i := range want {
		want[i] = untouched
	}
	for m, li := range list {
		for j := 0; j < k; j++ {
			want[(nLocal+slots[m])*k+j] = float64(V(x[li*k+j]))
		}
	}
	for i := range want {
		if xExt[i] != want[i] {
			t.Fatalf("k=%d, %d rows, %T wire: xExt[%d] = %v, want %v", k, nList, buf, i, xExt[i], want[i])
		}
	}
}

// A rank with an empty halo may still owe sends: rank 0 of a lower-
// triangular matrix reads no remote column, yet rank 1 reads rank 0's. The
// products must run the exchange there (a shortcut on the empty halo leaves
// rank 1 waiting forever), and only a rank with no peers at all — the
// one-rank operator — reads its input in place.
func TestProductExchangesOnEmptyHaloWithSends(t *testing.T) {
	const n = 8
	co := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		co.Add(i, i, 2)
		if i > 0 {
			co.Add(i, i-1, -1)
		}
	}
	g := co.ToCSR()
	x := make([]float64, 2*n)
	for i := range x {
		x[i] = float64(i + 1)
	}
	want := make([]float64, 2*n)
	g.MulMat(x, want, 2)

	l := NewUniformLayout(n, 2)
	got := make([]float64, 2*n)
	gotVec := make([]float64, n)
	_, err := simmpi.Run(2, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		op := NewOp(c, l, lo, hi, ExtractLocalRows(g, lo, hi))
		if c.Rank() == 0 && (len(op.LZ.Halo) != 0 || op.Plan.SendCount() == 0 || op.Plan.idle()) {
			return fmt.Errorf("rank 0: halo %v, %d sends, idle %v; want an empty halo and a busy plan",
				op.LZ.Halo, op.Plan.SendCount(), op.Plan.idle())
		}
		op.MulMat(c, x[2*lo:2*hi], got[2*lo:2*hi], 2, nil, NewBatchDistVec(op.LZ, 2), nil)
		col0 := make([]float64, hi-lo)
		for i := range col0 {
			col0[i] = x[2*(lo+i)]
		}
		op.MulVec(c, col0, gotVec[lo:hi], NewDistVec(op.LZ), nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulMat entry %d = %v, want %v", i, got[i], want[i])
		}
	}
	for i := 0; i < n; i++ {
		if gotVec[i] != want[2*i] {
			t.Fatalf("MulVec entry %d = %v, want %v", i, gotVec[i], want[2*i])
		}
	}

	// The one-rank operator has no peers: it multiplies x in place, so the
	// scratch vector is never written.
	local := LocalOp(g)
	if !local.Plan.idle() {
		t.Fatal("LocalOp's plan is not idle")
	}
	scratch := NewDistVec(local.LZ)
	y := make([]float64, n)
	col0 := make([]float64, n)
	for i := range col0 {
		col0[i] = x[2*i]
	}
	local.MulVec(nil, col0, y, scratch, nil)
	for i := range y {
		if y[i] != want[2*i] {
			t.Fatalf("LocalOp MulVec entry %d = %v, want %v", i, y[i], want[2*i])
		}
		if scratch.Ext[i] != 0 {
			t.Fatalf("LocalOp copied its input into the scratch vector")
		}
	}
}

// handPlan builds a hand-designed 4-rank halo whose exact meter the tests
// below pin: every rank owns 2 values and sends its local 0 to every other
// rank, receiving one value from each peer into halo slots ordered by source
// rank — 3 messages of 8 bytes per rank, 12 / 96 over the world.
func handPlan(rank int) *HaloPlan {
	const size = 4
	send := make([][]int, size)
	recv := make([][]int, size)
	slot := 0
	for p := 0; p < size; p++ {
		if p == rank {
			continue
		}
		send[p] = []int{0}
		recv[p] = []int{slot}
		slot++
	}
	return NewHaloPlanFromSchedule(send, recv)
}

// handExchange runs a hand-plan update of k columns for each k in ks on c
// and checks what lands in the halo: column j of local value i holds
// 100·rank + i + 1000·j, so the slot of source s must read 100·s + 1000·j.
// It returns the rank's metered messages and bytes for each update, beside
// what ExchangeCounts predicts for it.
func handExchange(c *simmpi.Comm, ks []int) (metered, predicted [][2]int64, err error) {
	p := handPlan(c.Rank())
	for _, k := range ks {
		ext := make([]float64, 5*k)
		for i := 0; i < 2; i++ {
			for j := 0; j < k; j++ {
				ext[i*k+j] = float64(100*c.Rank() + i + 1000*j)
			}
		}
		before := c.Meter().RankSnapshot(c.Rank())
		if k == 1 {
			p.Exchange(c, ext, 2)
		} else {
			p.ExchangeBatch(c, ext, 2, k)
		}
		d := c.Meter().RankSnapshot(c.Rank()).Sub(before)
		metered = append(metered, [2]int64{d.P2PMessages, d.P2PBytes})
		m, b := p.ExchangeCounts(k)
		predicted = append(predicted, [2]int64{m, b})
		slot := 0
		for src := 0; src < 4; src++ {
			if src == c.Rank() {
				continue
			}
			for j := 0; j < k; j++ {
				if got, want := ext[(2+slot)*k+j], float64(100*src+1000*j); got != want {
					return nil, nil, fmt.Errorf("rank %d k=%d halo slot %d col %d: got %v, want %v",
						c.Rank(), k, slot, j, got, want)
				}
			}
			slot++
		}
		c.Barrier()
	}
	return metered, predicted, nil
}

// runHand runs the updates of ks columns on a 4-rank world, in-process or over sockets, and pins
// each rank's hand-computed meter: 3 messages per update, 24·k bytes — a
// k-wide update costs one message per peer, carrying k columns — and
// ExchangeCounts agreeing.
func runHand(t *testing.T, sockets bool, ks []int) {
	t.Helper()
	var metered, predicted [4][][2]int64
	fn := func(c *simmpi.Comm) (err error) {
		metered[c.Rank()], predicted[c.Rank()], err = handExchange(c, ks)
		return err
	}
	var err error
	if sockets {
		_, err = tcpmpi.RunLocal(4, tcpmpi.Config{Timeout: testTimeout}, fn)
	} else {
		_, err = simmpi.Run(4, testTimeout, fn)
	}
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		for i, k := range ks {
			want := [2]int64{3, int64(24 * k)}
			if metered[r][i] != want || predicted[r][i] != want {
				t.Fatalf("rank %d update %d (k = %d): metered %v, ExchangeCounts %v, want %v",
					r, i, k, metered[r][i], predicted[r][i], want)
			}
		}
	}
}

// The hand-built plan's single-column update on goroutine ranks: halo
// values, per-rank meter and ExchangeCounts. (The NodeAware prefix dates
// from when these tests also drove a node-aware relay; every update now
// goes straight to its peer.)
func TestNodeAwareHandBuiltExchangeSim(t *testing.T) {
	runHand(t, false, []int{1})
}

// The same single-column update over the socket transport.
func TestNodeAwareHandBuiltExchangeTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("socket transport in -short mode")
	}
	runHand(t, true, []int{1})
}

// A single-column update followed by a k-wide batched update on one plan
// must deliver the same values, and a k-wide batch still costs one message
// per peer, carrying k columns — on both transports. (The Async in the name
// dates from when the first update ran beside a posted reduction.)
func TestNodeAwareAsyncAndBatchedExchange(t *testing.T) {
	ups := []int{1, 3}
	runHand(t, false, ups)
	if !testing.Short() {
		runHand(t, true, ups)
	}
}
