package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"fsaicomm"
	"fsaicomm/internal/testsets"
)

// transportRecord is one row of the BENCH_transport.json artifact emitted by
// `make bench`: the same prepared solve timed through both rank backends —
// "sim" (goroutine ranks over in-process channels) and "tcp" (one OS process
// per rank over a socket mesh). The solves are bit-identical across backends
// (the conformance suite enforces it), so the rows differ only in wall time:
// the tcp ns_per_op includes process spawn, the coordinator rendezvous and
// the full-mesh handshake, which is the honest cost of picking that backend.
type transportRecord struct {
	Matrix  string `json:"matrix"`
	Rows    int    `json:"rows"`
	NNZ     int    `json:"nnz"`
	Variant string `json:"variant"`
	Ranks   int    `json:"ranks"`
	Backend string `json:"backend"` // sim | tcp

	Iterations int  `json:"iterations"`
	Converged  bool `json:"converged"`

	NsPerOp         int64 `json:"ns_per_op"` // wall time of one prepared solve
	CommBytes       int64 `json:"comm_bytes"`
	CollectiveCalls int64 `json:"collective_calls"`
	CollectiveBytes int64 `json:"collective_bytes"`
}

// transportBackends expands the -transport flag for the transportjson
// experiment: empty or "both" measures the two backends side by side.
func transportBackends(flag string) ([]string, error) {
	switch flag {
	case "", "both":
		return []string{"sim", "tcp"}, nil
	case "sim", "tcp":
		return []string{flag}, nil
	default:
		return nil, fmt.Errorf("unknown transport %q (want sim, tcp or both)", flag)
	}
}

// writeTransportJSON times classic, fused and pipelined prepared solves at 4
// and 8 ranks on each requested backend and emits the rows as indented JSON.
// Setup is paid once per rank count via Prepare — the factors are transport-
// independent — so ns_per_op isolates what the backend adds to a solve. The
// first tcp row of a rank count also pays for spawning the resident workers
// and shipping them the operators; the later ones reuse them.
// prec selects the solve precision (-precision fp32 measures the refined
// mixed-precision path instead of the FP64 default).
func writeTransportJSON(w io.Writer, backends []string, prec fsaicomm.Precision) error {
	spec, err := testsets.ByName("Dubcova2-sim")
	if err != nil {
		return err
	}
	a := spec.Generate()
	b := fsaicomm.GenerateRHS(a, 11)
	variants := []fsaicomm.CGVariant{fsaicomm.CGClassic, fsaicomm.CGFused, fsaicomm.CGPipelined}

	var recs []transportRecord
	for _, ranks := range []int{4, 8} {
		p, err := fsaicomm.Prepare(a, fsaicomm.Options{
			Method: fsaicomm.FSAIEComm, Filter: 0.01, Ranks: ranks, Precision: prec,
		})
		if err != nil {
			return fmt.Errorf("prepare at %d ranks: %w", ranks, err)
		}
		for _, v := range variants {
			for _, backend := range backends {
				so := fsaicomm.SolveOptions{CGVariant: v, Transport: backend}
				start := time.Now()
				res, err := p.Solve(context.Background(), b, so)
				elapsed := time.Since(start)
				if err != nil {
					return fmt.Errorf("%s %v at %d ranks: %w", backend, v, ranks, err)
				}
				recs = append(recs, transportRecord{
					Matrix: spec.Name, Rows: a.Rows, NNZ: a.NNZ(),
					Variant: v.String(), Ranks: ranks, Backend: backend,
					Iterations: res.Iterations, Converged: res.Converged,
					NsPerOp:         elapsed.Nanoseconds(),
					CommBytes:       res.CommBytes,
					CollectiveCalls: res.CollectiveCalls,
					CollectiveBytes: res.CollectiveBytes,
				})
			}
		}
		p.Close() // the tcp rows left rank workers resident; the next rank count starts clean
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}
