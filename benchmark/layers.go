package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"fsaicomm"
	"fsaicomm/internal/core"
	"fsaicomm/internal/distmat"
	"fsaicomm/internal/fsai"
	"fsaicomm/internal/krylov"
	"fsaicomm/internal/partition"
	"fsaicomm/internal/simmpi"
	"fsaicomm/internal/sparse"
	"fsaicomm/internal/tcpmpi"
	"fsaicomm/internal/vecops"
)

// layers times calls from the harness into each module's public functions,
// on the workload's own system, and turns them into the per-layer metrics.
// Every timed call is a span under one root, so the trace file shows the
// same numbers the metrics summarise.
type layers struct {
	cfg  config
	tr   *tracer
	root int
	a    *sparse.CSR
	b    [][]float64 // two right-hand sides of the workload's rotation
	cg   krylov.CGVariant
	out  map[string]float64
	// err is the first failure of a timed call; once set, later samples are
	// skipped and runLayers reports it.
	err error
}

// runLayers fills every in-process per-layer metric.
func runLayers(cfg config, tr *tracer, in *inputs) (map[string]float64, error) {
	cg, err := krylov.ParseCGVariant(cfg.w.cg)
	if err != nil {
		return nil, err
	}
	l := &layers{cfg: cfg, tr: tr, a: in.base, cg: cg, out: make(map[string]float64)}
	if cfg.w.cold {
		l.a = in.perturbed(0)
	}
	for i := 0; i < 2; i++ {
		l.b = append(l.b, fsaicomm.GenerateRHS(l.a, in.rhsSeed(i)))
	}
	l.root = tr.begin("layers "+cfg.w.name, 0, 0)
	defer tr.end(l.root)
	l.kernels()
	l.setupLayers()
	l.distributed()
	l.facade()
	return l.out, l.err
}

// n is a sample or repetition count: two in -quick, where only the code path
// matters.
func (l *layers) n(full int) int {
	if l.cfg.quick {
		return 2
	}
	return full
}

// sample times fn count times and returns the median.
func (l *layers) sample(name string, count int, fn func() error) time.Duration {
	if l.err != nil {
		return 0
	}
	ds := make([]time.Duration, count)
	for i := range ds {
		var err error
		ds[i] = l.tr.timed(name, l.root, 0, func() { err = fn() })
		if err != nil {
			l.err = fmt.Errorf("%s: %w", name, err)
			return 0
		}
	}
	return median(ds)
}

// kernel adapts a call that cannot fail.
func kernel(fn func()) func() error {
	return func() error { fn(); return nil }
}

// onRanks runs fn on two ranks of the named backend: goroutine ranks over
// channels, or goroutine ranks over a loopback socket mesh (the full wire
// path without the process spawn).
func onRanks(backend string, fn func(c *simmpi.Comm) error) error {
	if backend == "tcp" {
		_, err := tcpmpi.RunLocal(ranks, tcpmpi.Config{}, fn)
		return err
	}
	_, err := simmpi.Run(ranks, time.Hour, fn)
	return err
}

// rankLoop times a collective call on every rank: samples × reps calls, each
// sample's per-call time taken from the slowest rank (a solve waits for it),
// median over samples. setup builds the rank's private state and returns the
// call.
func (l *layers) rankLoop(name, backend string, samples, reps int, setup func(c *simmpi.Comm) func() error) time.Duration {
	if l.err != nil {
		return 0
	}
	perRank := make([][]time.Duration, ranks)
	starts := make([]time.Time, samples)
	err := onRanks(backend, func(c *simmpi.Comm) error {
		call := setup(c)
		ds := make([]time.Duration, samples)
		for s := range ds {
			c.Barrier()
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				if err := call(); err != nil {
					return err
				}
			}
			ds[s] = time.Since(t0)
			if c.Rank() == 0 {
				starts[s] = t0
			}
		}
		perRank[c.Rank()] = ds
		return nil
	})
	name = fmt.Sprintf("%s [%s] x%d", name, backend, reps)
	if err != nil {
		l.err = fmt.Errorf("%s: %w", name, err)
		return 0
	}
	slowest := make([]time.Duration, samples)
	for s := range slowest {
		for _, ds := range perRank {
			slowest[s] = max(slowest[s], ds[s])
		}
		l.tr.record(name, l.root, starts[s], slowest[s])
		slowest[s] /= time.Duration(reps)
	}
	return median(slowest)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// kernels: sparse and vecops, serial, on workload-sized arrays.
func (l *layers) kernels() {
	a, n, nnz := l.a, l.a.Rows, float64(l.a.NNZ())
	x, y := make([]float64, n), make([]float64, n)
	copy(x, l.b[0])
	fmt.Fprintf(l.cfg.log, "arrays: A %.2f MB (%d rows, %d nnz), one vector %.2f MB\n",
		float64(8*(len(a.RowPtr)+len(a.ColIdx)+len(a.Val)))/1e6, n, a.NNZ(), float64(8*n)/1e6)

	d := l.sample("sparse.CSR.MulVec", l.n(60), kernel(func() { a.MulVec(x, y) }))
	l.out["sparse.spmv_ns_per_nnz"] = float64(d) / nnz
	x2, y2 := make([]float64, 2*n), make([]float64, 2*n)
	vecops.PackColumn(x2, l.b[0], 2, 0)
	vecops.PackColumn(x2, l.b[1], 2, 1)
	d = l.sample("sparse.CSR.MulMat k=2", l.n(60), kernel(func() { a.MulMat(x2, y2, 2) }))
	l.out["sparse.spmm2_ns_per_nnz_col"] = float64(d) / (2 * nnz)

	mm := matrixMarket(a)
	d = l.sample("sparse.ReadMatrixMarket", l.n(5), func() error {
		_, err := sparse.ReadMatrixMarket(bytes.NewReader(mm))
		return err
	})
	l.out["sparse.mm_parse_ms"] = ms(d)
	d = l.sample("sparse.CSR.Fingerprint", l.n(5), kernel(func() { a.Fingerprint() }))
	l.out["sparse.fingerprint_ms"] = ms(d)

	d = l.sample("vecops.Dot", l.n(200), kernel(func() { vecops.Dot(x, y, nil) }))
	l.out["vecops.dot_ns_per_elem"] = float64(d) / float64(n)
	d = l.sample("vecops.Axpy", l.n(200), kernel(func() { vecops.Axpy(1e-9, x, y, nil) }))
	l.out["vecops.axpy_ns_per_elem"] = float64(d) / float64(n)
	// u, w, p, s, x, r of the fused recurrence; k-wide for the batch kernel.
	v := make([][]float64, 6)
	for i := range v {
		v[i] = make([]float64, 2*n)
		copy(v[i], x2)
	}
	d = l.sample("vecops.FusedCGUpdate", l.n(200), kernel(func() {
		vecops.FusedCGUpdate(1e-9, 0.5, v[0][:n], v[1][:n], v[2][:n], v[3][:n], v[4][:n], v[5][:n], nil)
	}))
	l.out["vecops.fused_update_ns_per_elem"] = float64(d) / float64(n)
	alpha, beta, rr := []float64{1e-9, 1e-9}, []float64{0.5, 0.5}, make([]float64, 2)
	d = l.sample("vecops.FusedCGUpdateBatch k=2", l.n(200), kernel(func() {
		vecops.FusedCGUpdateBatch(alpha, beta, v[0], v[1], v[2], v[3], v[4], v[5], 2, nil, rr, nil)
	}))
	l.out["vecops.fused_update_batch2_ns_per_elem"] = float64(d) / float64(2*n)
}

// setupLayers: what Prepare is made of — partition, factor build, pattern
// extension — each called serially from here.
func (l *layers) setupLayers() {
	a := l.a
	var part []int
	d := l.sample("partition.Multilevel", l.n(5), func() (err error) {
		part, err = partition.Multilevel(partition.GraphFromMatrix(a), ranks, partition.Options{})
		return err
	})
	l.out["partition.multilevel_ms"] = ms(d)
	if l.err != nil {
		return
	}
	l.out["partition.edge_cut"] = float64(partition.EdgeCut(partition.GraphFromMatrix(a), part))

	var gBase, g *sparse.CSR
	d = l.sample("fsai.BuildWorkers", l.n(3), func() (err error) {
		gBase, err = fsai.BuildWorkers(a, fsai.LowerPattern(a), 0)
		return err
	})
	l.out["fsai.build_ms"] = ms(d)
	d = l.sample("core.BuildSerial", l.n(3), func() (err error) {
		g, _, err = core.BuildSerial(a, core.FSAIEComm, 0, 64)
		return err
	})
	l.out["core.build_serial_ms"] = ms(d)
	if l.err != nil {
		return
	}

	// The paper's claim on real hardware: the extended factor has more
	// entries, and they should cost less per entry than the base factor's
	// because they sit on cache lines the base pattern already fetches.
	r, z := l.b[0], make([]float64, a.Rows)
	apply := func(name string, g *sparse.CSR) float64 {
		gt := g.Transpose()
		split := krylov.NewSplit(g, gt)
		d := l.sample(name, l.n(60), kernel(func() { split.Apply(r, z, nil) }))
		return float64(d) / float64(g.NNZ()+gt.NNZ())
	}
	l.out["fsai.apply_ns_per_nnz"] = apply("krylov.Split.Apply fsaie-comm", g)
	l.out["fsai.apply_ns_per_nnz_base"] = apply("krylov.Split.Apply fsai", gBase)
}

// rankParts is one rank's share of the partitioned system: what
// fsaicomm.Prepare keeps per rank, rebuilt here through the same internal
// calls so the Krylov loops can be timed without the facade around them.
type rankParts struct {
	lo, hi               int
	a, g, gt             *distmat.Localized
	aPlan, gPlan, gtPlan *distmat.HaloPlan
	b                    [2][]float64 // local slices of the two right-hand sides
}

func (l *layers) partitioned() []rankParts {
	parts := make([]rankParts, ranks)
	l.sample("partition + core.BuildPrecond + distmat.NewOp", 1, func() error {
		part, err := partition.Multilevel(partition.GraphFromMatrix(l.a), ranks, partition.Options{})
		if err != nil {
			return err
		}
		pa, layout, oldToNew := distmat.ApplyPartition(l.a, part, ranks)
		pb := [2][]float64{distmat.PermuteVec(l.b[0], oldToNew), distmat.PermuteVec(l.b[1], oldToNew)}
		return onRanks("sim", func(c *simmpi.Comm) error {
			lo, hi := layout.Range(c.Rank())
			rows := distmat.ExtractLocalRows(pa, lo, hi)
			bd, err := core.BuildPrecond(c, layout, rows, core.Config{Method: core.FSAIEComm, LineBytes: 64})
			if err != nil {
				return err
			}
			aOp := distmat.NewOp(c, layout, lo, hi, rows)
			parts[c.Rank()] = rankParts{lo: lo, hi: hi,
				a: aOp.LZ, g: bd.GOp.LZ, gt: bd.GTOp.LZ,
				aPlan: aOp.Plan, gPlan: bd.GOp.Plan, gtPlan: bd.GTOp.Plan,
				b: [2][]float64{pb[0][lo:hi], pb[1][lo:hi]}}
			return nil
		})
	})
	return parts
}

// ops derives a rank's private operators from the shared parts, with the
// overlap view the non-classic loops need.
func (p *rankParts) ops(variant krylov.CGVariant) (a, g, gt *distmat.Op) {
	var opts []distmat.OpOption
	if variant != krylov.CGClassic {
		opts = append(opts, distmat.WithOverlap())
	}
	return distmat.NewOpFromParts(p.a, p.aPlan.Clone(), opts...),
		distmat.NewOpFromParts(p.g, p.gPlan.Clone(), opts...),
		distmat.NewOpFromParts(p.gt, p.gtPlan.Clone(), opts...)
}

// packed interleaves the rank's two right-hand sides for the k=2 kernels.
func (p *rankParts) packed() []float64 {
	x := make([]float64, 2*(p.hi-p.lo))
	vecops.PackColumn(x, p.b[0], 2, 0)
	vecops.PackColumn(x, p.b[1], 2, 1)
	return x
}

// distributed: simmpi/tcpmpi primitives, distmat products and the krylov
// loops on prebuilt operators — no facade, no process spawn.
func (l *layers) distributed() {
	parts := l.partitioned()
	if l.err != nil {
		return
	}
	maxNNZ := 0
	for i := range parts {
		maxNNZ = max(maxNNZ, parts[i].a.M.NNZ())
	}

	allreduce := func(c *simmpi.Comm) func() error {
		return kernel(func() { c.AllreduceSum(1) })
	}
	halo := func(c *simmpi.Comm) func() error {
		p := &parts[c.Rank()]
		plan, ext := p.aPlan.Clone(), distmat.NewDistVec(p.a)
		copy(ext.Local(), p.b[0])
		return kernel(func() { plan.Exchange(c, ext.Ext, ext.NLocal) })
	}
	pingpong := func(floats int) func(c *simmpi.Comm) func() error {
		return func(c *simmpi.Comm) func() error {
			buf, peer := make([]float64, floats), 1-c.Rank()
			if c.Rank() == 0 {
				return kernel(func() { c.SendFloats(peer, 900, buf); c.RecvFloats(peer, 900) })
			}
			return kernel(func() { c.SendFloats(peer, 900, c.RecvFloats(peer, 900)) })
		}
	}
	for _, backend := range []string{"sim", "tcp"} {
		prefix := backend + "mpi."
		l.out[prefix+"allreduce_us"] = us(l.rankLoop("Comm.AllreduceSum", backend, l.n(30), l.n(200), allreduce))
		l.out[prefix+"halo_exchange_us"] = us(l.rankLoop("HaloPlan.Exchange", backend, l.n(30), l.n(200), halo))
	}
	l.out["tcpmpi.pingpong_8B_us"] = us(l.rankLoop("Send/RecvFloats 8B", "tcp", l.n(30), l.n(200), pingpong(1)))
	l.out["tcpmpi.pingpong_64KiB_us"] = us(l.rankLoop("Send/RecvFloats 64KiB", "tcp", l.n(30), l.n(50), pingpong(8192)))
	d := l.sample("tcpmpi.RunLocal empty", l.n(15), func() error {
		return onRanks("tcp", func(*simmpi.Comm) error { return nil })
	})
	l.out["tcpmpi.mesh_connect_ms"] = ms(d)

	spmv := l.rankLoop("distmat.Op.MulVec", "sim", l.n(40), 1, func(c *simmpi.Comm) func() error {
		p := &parts[c.Rank()]
		op, _, _ := p.ops(krylov.CGClassic)
		y, scratch := make([]float64, p.hi-p.lo), distmat.NewDistVec(p.a)
		return kernel(func() { op.MulVec(c, p.b[0], y, scratch, nil) })
	})
	l.out["distmat.spmv_ns_per_nnz"] = float64(spmv) / float64(maxNNZ)
	d = l.rankLoop("distmat.Op.MulMat k=2", "sim", l.n(40), 1, func(c *simmpi.Comm) func() error {
		p := &parts[c.Rank()]
		op, _, _ := p.ops(krylov.CGClassic)
		x, y, scratch := p.packed(), make([]float64, 2*(p.hi-p.lo)), distmat.NewBatchDistVec(p.a, 2)
		return kernel(func() { op.MulMat(c, x, y, 2, nil, scratch, nil) })
	})
	l.out["distmat.spmm2_ns_per_nnz_col"] = float64(d) / float64(2*maxNNZ)
	precond := l.rankLoop("krylov.DistSplit.Apply", "sim", l.n(40), 1, func(c *simmpi.Comm) func() error {
		p := &parts[c.Rank()]
		_, g, gt := p.ops(krylov.CGClassic)
		m, z := krylov.NewDistSplit(g, gt), make([]float64, p.hi-p.lo)
		return kernel(func() { m.Apply(c, p.b[0], z, nil) })
	})

	iters := 0 // of the classic loop; written by rank 0 only
	cg := func(v krylov.CGVariant) func(c *simmpi.Comm) func() error {
		return func(c *simmpi.Comm) func() error {
			p := &parts[c.Rank()]
			a, g, gt := p.ops(v)
			m, x, ws := krylov.NewDistSplit(g, gt), make([]float64, p.hi-p.lo), &krylov.Workspace{}
			return func() error {
				vecops.Fill(x, 0)
				st, err := krylov.DistCG(c, a, p.b[0], x, m, krylov.Options{Tol: tol, Variant: v, Work: ws}, nil)
				if c.Rank() == 0 && v == krylov.CGClassic {
					iters = st.Iterations
				}
				return err
			}
		}
	}
	classic := l.rankLoop("krylov.DistCG classic", "sim", l.n(7), 1, cg(krylov.CGClassic))
	l.out["krylov.distcg_ms"] = ms(classic)
	l.out["krylov.ms_per_iter"] = ms(classic) / float64(iters)
	l.out["krylov.distcg_fused_ms"] = ms(l.rankLoop("krylov.DistCG fused", "sim", l.n(7), 1, cg(krylov.CGFused)))
	l.out["krylov.distcg_pipelined_ms"] = ms(l.rankLoop("krylov.DistCG pipelined", "sim", l.n(7), 1, cg(krylov.CGPipelined)))
	l.out["krylov.distcg_tcp_ms"] = ms(l.rankLoop("krylov.DistCG classic", "tcp", l.n(7), 1, cg(krylov.CGClassic)))
	d = l.rankLoop("krylov.DistCGBatch k=2 "+l.cfg.w.cg, "sim", l.n(7), 1, func(c *simmpi.Comm) func() error {
		p := &parts[c.Rank()]
		a, g, gt := p.ops(krylov.CGClassic) // the batched loops use the blocking schedule
		m, b, x := krylov.NewDistSplitBatch(g, gt, 2), p.packed(), make([]float64, 2*(p.hi-p.lo))
		return func() error {
			vecops.Fill(x, 0)
			_, err := krylov.DistCGBatch(c, a, b, x, m, 2, krylov.Options{Tol: tol, Variant: l.cg}, nil)
			return err
		}
	})
	l.out["krylov.distcg_batch2_ms"] = ms(d)

	// One classic iteration is one A product, one G/Gᵀ application, three
	// reductions (a local dot each), two axpys and one xpay on the rank's
	// half of the vector. What the loop takes beyond those is unaccounted.
	half := float64(parts[0].hi - parts[0].lo)
	perIter := float64(spmv) + float64(precond) +
		3*(1e3*l.out["simmpi.allreduce_us"]+half*l.out["vecops.dot_ns_per_elem"]) +
		3*half*l.out["vecops.axpy_ns_per_elem"]
	l.out["krylov.unaccounted_share"] = 1 - perIter*float64(iters)/float64(classic)
}

// facade: the public fsaicomm calls the server makes, in process.
func (l *layers) facade() {
	a, ctx := l.a, context.Background()
	var p *fsaicomm.Prepared
	d := l.sample("fsaicomm.Prepare", l.n(5), func() (err error) {
		p, err = fsaicomm.Prepare(a, fsaicomm.Options{Method: fsaicomm.FSAIEComm, Ranks: ranks})
		return err
	})
	l.out["fsaicomm.prepare_ms"] = ms(d)

	var last *fsaicomm.Result
	solve := func(name string, so fsaicomm.SolveOptions) time.Duration {
		return l.sample(name, l.n(7), func() (err error) {
			last, err = p.Solve(ctx, l.b[0], so)
			if err == nil && so.MaxIter == 0 && !last.Converged {
				err = errors.New("not converged")
			}
			return err
		})
	}
	sim := fsaicomm.SolveOptions{Tol: tol, CGVariant: l.cg}
	tcp := sim
	tcp.Transport = "tcp"
	scalar := solve("fsaicomm.Prepared.Solve sim", sim)
	l.out["fsaicomm.solve_ms"] = ms(scalar)
	if l.err != nil {
		return
	}
	// What the server's responses cannot give on every workload: a batched
	// response carries no modeled time, so main prefers the response's and
	// falls back on these.
	l.out["archmodel.modeled_solve_ms"] = last.ModeledSolveTime * 1e3
	l.out["archmodel.measured_over_modeled"] = ms(scalar) / (last.ModeledSolveTime * 1e3)
	l.out["fsaicomm.solve_tcp_ms"] = ms(solve("fsaicomm.Prepared.Solve tcp", tcp))

	// A one-iteration solve costs next to nothing in the loop, so tcp − sim
	// is what starting rank processes and shipping the prepared parts to
	// them costs per solve.
	sim.MaxIter, tcp.MaxIter = 1, 1
	l.out["mprun.launch_ship_ms"] = ms(solve("fsaicomm.Prepared.Solve tcp maxiter=1", tcp) -
		solve("fsaicomm.Prepared.Solve sim maxiter=1", sim))
	sim.MaxIter = 0

	batch := func(k int) time.Duration {
		return l.sample(fmt.Sprintf("fsaicomm.Prepared.SolveBatch k=%d", k), l.n(7), func() error {
			br, err := p.SolveBatch(ctx, l.b[:k], sim)
			if err == nil && !br.AllConverged() {
				err = errors.New("not converged")
			}
			return err
		})
	}
	l.out["fsaicomm.solve_batch2_ms"] = ms(batch(2))
	batch1 := batch(1)
	l.out["fsaicomm.solve_batch1_ms"] = ms(batch1)
	l.out["fsaicomm.batch1_over_scalar"] = float64(batch1) / float64(scalar)

	// Serial baseline: the same CG on a prebuilt factor, one worker.
	var pre *fsaicomm.Preconditioner
	l.sample("fsaicomm.BuildPreconditioner serial", 1, func() (err error) {
		pre, err = fsaicomm.BuildPreconditioner(a, fsaicomm.Options{Method: fsaicomm.FSAIEComm, Workers: 1})
		return err
	})
	serial := l.sample("fsaicomm.Preconditioner.SolveWith serial", l.n(5), func() error {
		_, err := pre.SolveWith(l.b[0], fsaicomm.Options{Tol: tol})
		return err
	})
	l.out["fsaicomm.solve_serial_ms"] = ms(serial)
	l.out["fsaicomm.parallel_efficiency_2r"] = float64(serial) / (ranks * float64(scalar))
}
