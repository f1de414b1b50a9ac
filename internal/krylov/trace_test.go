package krylov

import (
	"testing"

	"fsaicomm/internal/distmat"
	"fsaicomm/internal/matgen"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/vecops"
)

// tracedSolve runs DistCG on nranks ranks and returns the assembled
// solution, every rank's Stats (with traces when opt.Trace is set) and
// every rank's metered traffic across the DistCG call — snapshotted on the
// rank's own goroutine right before and after the solve (sends are charged
// at post time on the sender, so a rank's own row is consistent there).
// That delta is what the traces must conserve.
func tracedSolve(t *testing.T, a *sparse.CSR, b []float64, nranks int, opt Options) ([]float64, []Stats, []CommDelta) {
	t.Helper()
	n := a.Rows
	l := distmat.NewUniformLayout(n, nranks)
	x := make([]float64, n)
	sts := make([]Stats, nranks)
	totals := make([]CommDelta, nranks)
	_, err := simmpi.Run(nranks, testTimeout, func(c *simmpi.Comm) error {
		lo, hi := l.Range(c.Rank())
		op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(a, lo, hi))
		xl := make([]float64, hi-lo)
		pre := c.Meter().RankSnapshot(c.Rank())
		st, err := DistCG(c, op, b[lo:hi], xl, nil, opt, nil)
		if err != nil {
			return err
		}
		d := c.Meter().RankSnapshot(c.Rank()).Sub(pre)
		totals[c.Rank()] = CommDelta{
			CollectiveCalls: d.CollectiveCalls,
			CollectiveBytes: d.CollectiveBytes,
			P2PBytes:        d.P2PBytes,
			P2PMessages:     d.P2PMessages,
		}
		sts[c.Rank()] = st
		copy(x[lo:hi], xl)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return x, sts, totals
}

// The tentpole conservation property: with tracing on, every rank's Setup
// delta plus its per-iteration deltas sum exactly to the rank's metered
// totals — both of the traced run and of an untraced run of the same solve
// — and tracing perturbs nothing: the solution is bit-identical and the
// iteration count unchanged. Checked for all four distributed variants,
// plus the pipelined loop with residual replacement (whose extra halo
// exchanges must land in the iteration deltas too).
func TestTraceMeterConservation(t *testing.T) {
	a := matgen.Poisson2D(12, 12)
	b := matgen.RandomRHS(a.Rows, 21, a.MaxNorm())
	const nranks = 4
	cases := []struct {
		name string
		opt  Options
	}{
		{"classic", Options{}},
		{"classic-overlap", Options{Variant: CGClassicOverlap}},
		{"fused", Options{Variant: CGFused}},
		{"pipelined", Options{Variant: CGPipelined}},
		{"pipelined-rr", Options{Variant: CGPipelined, ResidualReplaceEvery: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			xu, stu, totu := tracedSolve(t, a, b, nranks, tc.opt)
			opt := tc.opt
			opt.Trace = true
			xt, stt, tott := tracedSolve(t, a, b, nranks, opt)
			if stu[0].Trace != nil {
				t.Fatal("untraced run carries a trace")
			}
			for i := range xu {
				if xu[i] != xt[i] {
					t.Fatalf("tracing changed x[%d]: %v vs %v", i, xu[i], xt[i])
				}
			}
			for r := 0; r < nranks; r++ {
				if stt[r].Iterations != stu[r].Iterations {
					t.Fatalf("rank %d: tracing changed iterations %d -> %d", r, stu[r].Iterations, stt[r].Iterations)
				}
				tr := stt[r].Trace
				if tr == nil || tr.Rank != r {
					t.Fatalf("rank %d: missing or misattributed trace: %+v", r, tr)
				}
				if len(tr.Iters) != stt[r].Iterations {
					t.Fatalf("rank %d: %d trace records for %d iterations", r, len(tr.Iters), stt[r].Iterations)
				}
				if got := tr.Total(); got != tott[r] {
					t.Fatalf("rank %d: trace total %+v != traced-run meter %+v", r, got, tott[r])
				}
				if got := tr.Total(); got != totu[r] {
					t.Fatalf("rank %d: trace total %+v != untraced-run meter %+v", r, got, totu[r])
				}
			}
			// The records carry the solve's numerics, not just traffic: the
			// final record's residual is the converged one and every α > 0
			// (SPD system), with β = 0 only allowed on the first record.
			tr := stt[0].Trace
			last := tr.Iters[len(tr.Iters)-1]
			if last.RelResidual != stt[0].RelResidual || last.Iter != stt[0].Iterations {
				t.Fatalf("last record %+v does not match Stats %+v", last, stt[0])
			}
			for i, rec := range tr.Iters {
				if rec.Alpha <= 0 {
					t.Fatalf("record %d: alpha %g not positive", i, rec.Alpha)
				}
				if i > 1 && rec.Beta <= 0 {
					t.Fatalf("record %d: beta %g not positive", i, rec.Beta)
				}
			}
		})
	}
}

// A serial solve records the same trace shape with all-zero comm deltas.
func TestTraceSerialCG(t *testing.T) {
	a := matgen.Poisson2D(10, 10)
	b := matgen.RandomRHS(a.Rows, 5, a.MaxNorm())
	x := make([]float64, a.Rows)
	st, err := CG(a, b, x, nil, Options{Trace: true}, nil)
	if err != nil || !st.Converged {
		t.Fatalf("serial CG: %+v, %v", st, err)
	}
	if st.Trace == nil || st.Trace.Rank != 0 || len(st.Trace.Iters) != st.Iterations {
		t.Fatalf("serial trace wrong: %+v", st.Trace)
	}
	if tot := st.Trace.Total(); tot != (CommDelta{}) {
		t.Fatalf("serial solve reported communication: %+v", tot)
	}
	x2 := make([]float64, a.Rows)
	st2, err := CG(a, b, x2, nil, Options{}, nil)
	if err != nil || st2.Trace != nil {
		t.Fatalf("untraced serial solve carries trace: %+v, %v", st2.Trace, err)
	}
}

// Every early-exit path of every variant must report the same Stats shape
// as normal convergence: the flop count accumulated so far and the attached
// trace. This is the table over the shared finalize helper.
func TestStatsFinalizeEarlyExits(t *testing.T) {
	// diag(1, 1, 1, -4): indefinite, so classic breaks at its first dᵀAd
	// and fused/pipelined at the setup uᵀAu.
	co := sparse.NewCOO(4, 4)
	for i := 0; i < 3; i++ {
		co.Add(i, i, 1)
	}
	co.Add(3, 3, -4)
	indef := co.ToCSR()
	ones := []float64{1, 1, 1, 1}

	variants := []CGVariant{CGClassic, CGClassicOverlap, CGFused, CGPipelined}
	cases := []struct {
		name     string
		a        *sparse.CSR
		b        []float64
		wantErr  bool
		wantConv bool
	}{
		{"zero-rhs", matgen.Poisson2D(4, 4), make([]float64, 16), false, true},
		{"breakdown", indef, ones, true, false},
	}
	for _, tc := range cases {
		for _, v := range variants {
			t.Run(tc.name+"/"+v.String(), func(t *testing.T) {
				n := tc.a.Rows
				l := distmat.NewUniformLayout(n, 2)
				sts := make([]Stats, 2)
				errs := make([]error, 2)
				_, err := simmpi.Run(2, testTimeout, func(c *simmpi.Comm) error {
					lo, hi := l.Range(c.Rank())
					op := distmat.NewOp(c, l, lo, hi, distmat.ExtractLocalRows(tc.a, lo, hi))
					x := make([]float64, hi-lo)
					fc := &vecops.FlopCounter{}
					st, serr := DistCG(c, op, tc.b[lo:hi], x, nil, Options{Variant: v, Trace: true}, fc)
					sts[c.Rank()], errs[c.Rank()] = st, serr
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for r, st := range sts {
					if (errs[r] != nil) != tc.wantErr {
						t.Fatalf("rank %d: err = %v, want error %v", r, errs[r], tc.wantErr)
					}
					if st.Converged != tc.wantConv || (tc.wantConv && st.Iterations != 0) {
						t.Fatalf("rank %d: stats %+v", r, st)
					}
					// The finalize helper must stamp Flops and Trace on every
					// path — the original bug dropped Flops on the pipelined
					// early exits.
					if st.Flops <= 0 {
						t.Fatalf("rank %d: early exit dropped Flops: %+v", r, st)
					}
					if st.Trace == nil {
						t.Fatalf("rank %d: early exit dropped Trace", r)
					}
				}
			})
		}
		// Serial CG shares the helper through the same return discipline.
		t.Run(tc.name+"/serial", func(t *testing.T) {
			x := make([]float64, tc.a.Rows)
			fc := &vecops.FlopCounter{}
			st, err := CG(tc.a, tc.b, x, nil, Options{Trace: true}, fc)
			if (err != nil) != tc.wantErr || st.Converged != tc.wantConv {
				t.Fatalf("serial: %+v, %v", st, err)
			}
			if st.Flops <= 0 || st.Trace == nil {
				t.Fatalf("serial early exit dropped Flops/Trace: %+v", st)
			}
		})
	}
}
