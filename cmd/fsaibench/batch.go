package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"fsaicomm"
	"fsaicomm/internal/testsets"
)

// batchRecord is one row of the BENCH_batch.json artifact emitted by
// `make bench`: the same k right-hand sides solved twice through one
// prepared system — k looped Prepared.Solve calls versus one
// Prepared.SolveBatch — so the pair isolates what batching buys. The
// batched solve runs one k-wide halo message and one k-wide reduction
// where the loop pays k narrow ones, so comm_messages_per_rhs and
// collective_calls_per_rhs drop by ~k (exactly k when every column takes
// the same iteration count; slightly less when the batch loop runs to the
// slowest column). Each batched column is bit-identical to its looped
// solve, so the rows differ only in wall time and communication.
type batchRecord struct {
	Matrix  string `json:"matrix"`
	Rows    int    `json:"rows"`
	NNZ     int    `json:"nnz"`
	Variant string `json:"variant"`
	Ranks   int    `json:"ranks"`
	Backend string `json:"backend"` // sim | tcp
	K       int    `json:"k"`       // right-hand sides per batch

	Iterations int  `json:"iterations"` // batch loop = max over columns
	Converged  bool `json:"converged"`  // every column

	NsPerRHSBatched int64   `json:"ns_per_rhs_batched"`
	NsPerRHSLooped  int64   `json:"ns_per_rhs_looped"`
	SpeedupPerRHS   float64 `json:"speedup_per_rhs"` // looped / batched

	MsgsPerRHSBatched  float64 `json:"comm_messages_per_rhs_batched"`
	MsgsPerRHSLooped   float64 `json:"comm_messages_per_rhs_looped"`
	CollsPerRHSBatched float64 `json:"collective_calls_per_rhs_batched"`
	CollsPerRHSLooped  float64 `json:"collective_calls_per_rhs_looped"`
	MessageDropX       float64 `json:"message_drop_x"`    // looped / batched, ≈ k
	CollectiveDropX    float64 `json:"collective_drop_x"` // looped / batched, ≈ k

	BatchedCommBytes int64 `json:"batched_comm_bytes"` // ≈ looped: k-wide payloads
	LoopedCommBytes  int64 `json:"looped_comm_bytes"`
}

// measureBatchCell times one (matrix, variant, backend, k) cell: k looped
// prepared solves of distinct right-hand sides, then the same k columns as
// one batched solve.
func measureBatchCell(name string, a *fsaicomm.Matrix, p *fsaicomm.Prepared, v fsaicomm.CGVariant, backend string, k int) (batchRecord, error) {
	so := fsaicomm.SolveOptions{CGVariant: v, Transport: backend}
	rhs := make([][]float64, k)
	for c := range rhs {
		rhs[c] = fsaicomm.GenerateRHS(a, int64(11+c))
	}
	ctx := context.Background()

	var loopNs time.Duration
	var loopMsgs, loopColls, loopBytes int64
	start := time.Now()
	for c := range rhs {
		res, err := p.Solve(ctx, rhs[c], so)
		if err != nil {
			return batchRecord{}, fmt.Errorf("%s %s/%v k=%d looped col %d: %w", name, backend, v, k, c, err)
		}
		loopMsgs += res.CommMessages
		loopColls += res.CollectiveCalls
		loopBytes += res.CommBytes
	}
	loopNs = time.Since(start)

	start = time.Now()
	br, err := p.SolveBatch(ctx, rhs, so)
	batchNs := time.Since(start)
	if err != nil {
		return batchRecord{}, fmt.Errorf("%s %s/%v k=%d batched: %w", name, backend, v, k, err)
	}

	fk := float64(k)
	return batchRecord{
		Matrix: name, Rows: a.Rows, NNZ: a.NNZ(),
		Variant: v.String(), Ranks: p.Ranks(), Backend: backend, K: k,
		Iterations: br.Iterations, Converged: br.AllConverged(),

		NsPerRHSBatched: batchNs.Nanoseconds() / int64(k),
		NsPerRHSLooped:  loopNs.Nanoseconds() / int64(k),
		SpeedupPerRHS:   float64(loopNs) / float64(batchNs),

		MsgsPerRHSBatched:  float64(br.CommMessages) / fk,
		MsgsPerRHSLooped:   float64(loopMsgs) / fk,
		CollsPerRHSBatched: float64(br.CollectiveCalls) / fk,
		CollsPerRHSLooped:  float64(loopColls) / fk,
		MessageDropX:       float64(loopMsgs) / float64(br.CommMessages),
		CollectiveDropX:    float64(loopColls) / float64(br.CollectiveCalls),

		BatchedCommBytes: br.CommBytes,
		LoopedCommBytes:  loopBytes,
	}, nil
}

// writeBatchJSON runs the batched-throughput sweep and emits the rows as
// indented JSON (and, when csvPath is set, the same rows as CSV):
//
//   - Dubcova2-sim at 4 ranks, classic and fused, k ∈ {1, 4, 16} on the
//     in-process backend — the per-RHS communication drop versus k;
//   - a ~50k-row Poisson 3D instance at 4 ranks, classic, k = 16 on every
//     requested backend — on "tcp" the looped baseline pays k rounds of
//     per-iteration socket traffic between the resident rank workers where
//     the batch pays one, which is the acceptance number for server-side
//     coalescing.
//
// Setup is paid once per instance via Prepare, outside all timings. The
// tcp k=16 row must come out faster per RHS than the loop — the sweep
// fails loudly if batching ever loses on it.
func writeBatchJSON(w io.Writer, csvPath string, backends []string, prec fsaicomm.Precision) error {
	var recs []batchRecord

	spec, err := testsets.ByName("Dubcova2-sim")
	if err != nil {
		return err
	}
	a := spec.Generate()
	p, err := fsaicomm.Prepare(a, fsaicomm.Options{Method: fsaicomm.FSAIEComm, Filter: 0.01, Ranks: 4, Precision: prec})
	if err != nil {
		return fmt.Errorf("prepare %s: %w", spec.Name, err)
	}
	defer p.Close()
	for _, v := range []fsaicomm.CGVariant{fsaicomm.CGClassic, fsaicomm.CGFused} {
		for _, k := range []int{1, 4, 16} {
			rec, err := measureBatchCell(spec.Name, a, p, v, "sim", k)
			if err != nil {
				return err
			}
			recs = append(recs, rec)
		}
	}

	big := fsaicomm.GeneratePoisson3D(37, 37, 37) // 50653 rows
	pb, err := fsaicomm.Prepare(big, fsaicomm.Options{
		Method: fsaicomm.FSAI, Ranks: 4, Partitioner: "block", Precision: prec,
	})
	if err != nil {
		return fmt.Errorf("prepare poisson3d-50k: %w", err)
	}
	defer pb.Close()
	for _, backend := range backends {
		rec, err := measureBatchCell("poisson3d-50k", big, pb, fsaicomm.CGClassic, backend, 16)
		if err != nil {
			return err
		}
		recs = append(recs, rec)
		if backend == "tcp" && rec.NsPerRHSBatched >= rec.NsPerRHSLooped {
			return fmt.Errorf("tcp k=16 on poisson3d-50k: batched %d ns/RHS did not beat looped %d ns/RHS",
				rec.NsPerRHSBatched, rec.NsPerRHSLooped)
		}
	}

	if csvPath != "" {
		if err := writeBatchCSV(csvPath, recs); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// writeBatchCSV writes the sweep rows as a flat CSV next to the JSON
// artifact, one column per record field.
func writeBatchCSV(path string, recs []batchRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(f)
	header := []string{
		"matrix", "rows", "nnz", "variant", "ranks", "backend", "k",
		"iterations", "converged",
		"ns_per_rhs_batched", "ns_per_rhs_looped", "speedup_per_rhs",
		"comm_messages_per_rhs_batched", "comm_messages_per_rhs_looped",
		"collective_calls_per_rhs_batched", "collective_calls_per_rhs_looped",
		"message_drop_x", "collective_drop_x",
		"batched_comm_bytes", "looped_comm_bytes",
	}
	if err := cw.Write(header); err != nil {
		f.Close()
		return err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range recs {
		row := []string{
			r.Matrix, strconv.Itoa(r.Rows), strconv.Itoa(r.NNZ), r.Variant,
			strconv.Itoa(r.Ranks), r.Backend, strconv.Itoa(r.K),
			strconv.Itoa(r.Iterations), strconv.FormatBool(r.Converged),
			strconv.FormatInt(r.NsPerRHSBatched, 10), strconv.FormatInt(r.NsPerRHSLooped, 10), g(r.SpeedupPerRHS),
			g(r.MsgsPerRHSBatched), g(r.MsgsPerRHSLooped),
			g(r.CollsPerRHSBatched), g(r.CollsPerRHSLooped),
			g(r.MessageDropX), g(r.CollectiveDropX),
			strconv.FormatInt(r.BatchedCommBytes, 10), strconv.FormatInt(r.LoopedCommBytes, 10),
		}
		if err := cw.Write(row); err != nil {
			f.Close()
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
