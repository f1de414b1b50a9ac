GO ?= go

.PHONY: all tier1 reach procs tier2 bench bce fuzz trace serve mp cover loc placement

all: tier1

# tier1: the fast correctness gate — full build + gofmt + vet + full test
# suite. The gofmt step fails (and lists the files) on any formatting diff.
# The twins step fails if a hand-copied second path comes back: a halo32.go
# or a HaloPlan method named like postSends32 in internal/distmat (the halo
# exchange is one generic body; the SetF32 switch and the Localized.M32
# accessor are not twins and stay), a typed point-to-point method of
# simmpi.Comm such as SendInts or RecvFloats32, or a Wait32, in non-test
# internal/simmpi (Send and Recv are one generic body each over float64,
# float32 and int; SendFloats and RecvFloats stay as one-line forms of them
# that benchmark/ calls), a typed
# collective method of simmpi.Comm such as AllreduceMax, AllgatherInt64 or
# BcastFloats (Allreduce and Allgather are generic functions over one
# rendezvous in Comm; AllreduceSum stays as the one-line form of Allreduce
# with Sum that benchmark/ calls), a Collective method in non-test
# internal/simmpi or internal/tcpmpi (transports move payloads on two lanes
# and never reduce), a CollPayload, appendColl or decodeColl in any non-test
# file (one payload type and one frame codec serve both lanes), or a
# non-test *Serial function in internal/krylov (a serial solve is the
# distributed loop on one rank). The schedule step fails if a second
# schedule comes back beside the blocking one, which every loop runs at
# every width for every product and every collective, pipelined CG's
# included: non-test code that names CGClassicOverlap, spells
# "classic-overlap", or names MulVecOverlap (the blocking and the
# send-then-compute product), OverlapOp, StartExchange, ExchangeHandle,
# EnsureOverlap, InteriorNNZ, PostSends, CompleteRecvs, Isend or Irecv, or a
# posted reduction or its overlap credit in the cost model — IallreduceSum,
# Quiesce, ErrWaited, simmpi.Request, overlapped, HiddenSec or HideAvail —,
# or that declares an Isend, Irecv, Iallreduce… or a Request type in
# internal/simmpi (simmpi has no nonblocking operation), or a WithOverlap
# whose body does anything (it stays as the no-op spelling benchmark/
# calls). The
# model step fails if the cost model is evaluated or assembled a second way:
# non-test code that declares OverlapTime, SolveTimeOverlapped or
# ModeledSolveTime (archmodel's Profile.OverlapReport is the one evaluator,
# mprun.ModeledPhases the one solve-level function, and the facade's
# Result.ModeledSolveTime is a field, its TotalSec), or that calls
# ComputeTime( or CommTime( outside internal/archmodel (every modeled second
# comes out of an OverlapReport), or non-test internal/mprun that builds
# IterCostInputs{ in more than one place (one assembler, assembleIterCost,
# prices every Krylov loop from its loop shape). It also fails if a rank job
# prices itself: a non-comment line of non-test internal/mprun/rankjob.go,
# worker.go, mesh.go or spec.go that names TracedMisses, IterCostInputs or
# archmodel (the job solves and meters; the holder of the operators prices
# the solve beside it with mprun.Price), or a call of traceMisses,
# traceSPAIMisses, a cache.Trace… function or NewProcessCache in non-test
# code outside internal/mprun/costinputs.go (archmodel.go declares the last)
# — the cache simulator runs in Price alone, never in a worker process. The loops step fails if a Krylov loop body comes back
# beside the five that exist: non-test internal/krylov compares an iteration
# count with opt.MaxIter in five places — the k-wide classic and fused CG
# loops, pipelined CG, and GMRES at its cycle top and inside the cycle (a
# scalar CG solve is the k-wide loop at width 1) — and has exactly one
# `for` over maxRefinements (the one FP64 refinement wrapper). The spawn step
# fails if the per-solve process spawn comes back beside the resident mesh:
# internal/mprun starts worker processes in one place (exec.Command once, in
# Start) and has no Launch. The analyse step fails if pattern-only set-up work
# gets a second way in beside the analyse phase: in the library (tests, the
# cmd tools and the examples apart) ExtendPattern is called once outside
# extend.go (its home, where ExtendPatternSerial wraps it for the cachelines
# example), from analysePattern; and, internal/experiments apart (its Runner
# partitions with the spec ID as seed), the partitioners are named in
# fsaicomm.go alone and partitionRows is called once, from distribute. The
# setup step fails if a second set-up path comes back beside core.Analyse +
# Symbolic.Factor, which every build runs on a world of as many ranks as the
# solve (one for a one-process solve): a non-test file of internal/mprun that
# imports internal/core (the rank job adopts operators, it never builds
# them), non-test internal/core that calls a serial builder
# (fsai.BuildWorkers, fsai.RebuildWorkers, fsai.PowerPatternWorkers or
# spai.Build), non-test internal/experiments that builds or solves by hand
# (an fsai builder, core.ExtendPattern, core.FilterRebuild,
# distmat.TransposeDist, distmat.NewOp or a krylov.Dist* loop): the paper's
# tables build with core.BuildPrecond and solve with mprun.RunJob — or
# non-test code of the root package that builds or solves beside Prepare and
# the rank job (krylov.CG, GMRES, SolveRefined or a Dist* loop,
# core.BuildOneRank, BuildPrecond or BuildSerial): every facade solve, one
# process too, is a Prepared system's mprun.RunJob per rank.
# The wire step fails if a second data path comes back beside the rings:
# non-test internal/tcpmpi has no per-peer reader (readLoop, bufio) and writes
# three things to a socket — a doorbell byte, the hello and the ring file's
# name — never a frame. The asm step fails if the module holds an assembly
# file beside the one product-kernel file (internal/sparse/rowkernel_amd64.s,
# which holds four kernels: the k-wide product with a column pair in one XMM
# register, the 1-wide run product that reads a run of consecutive columns
# with one index and a 64-byte line of x per two 256-bit loads (AVX2 hosts;
# the index checked once, not per run), the k-wide product over the same
# runs, a column pair per register, with a body of its own for a float64
# batch of two, and the 1-wide entry walk, the product of a matrix with no
# run index; the two 1-wide ones can carry a dot product through their
# store step); every other kernel
# is Go, and the arm64 vet keeps the portable bodies those platforms run
# building (it needs no network and nothing but the toolchain). The bench
# step fails if a second measurement system comes back beside benchmark/ and
# go test: a BENCH_* artifact at the repo root, or a cmd/fsaibench that
# imports encoding/json (a JSON writer) or internal/mprun (a rank spawn) —
# fsaibench prints the paper's tables and nothing else. The solve step fails
# if a second /solve path comes back in internal/serve beside the one job
# path, where a lone request is a job of one member and a coalescing batch
# the same job with followers: non-test internal/serve takes an admission
# slot in two places (s.sem <-: a free slot, or one waited for in the
# queue), releases it in one (<-s.sem), builds one solveResponse literal and
# adds a solve's totals to /metrics in one place (iterations.Add). The flat
# step fails if a node topology or node-aware halo aggregation comes back
# beside the flat world every workload runs (aggregation lost on this host's
# clock wherever it was measured; EXPERIMENTS.md): a file named nodeaware.go
# anywhere or internal/simmpi/topology.go, or a non-comment line of non-test
# code that names Topology(, ResolveTopology, RanksPerNode,
# NoNodeAggregation, SetNodeAware, NeedCounts, RunTopo, NewWorldTopo,
# NewMeterTopo, RunLocalTopo, IntraAlphaSec, IntraCommMsgs or napSched. The reach
# step fails if a non-test function comes back that no entry point reaches
# (see reach). The procs step, last, fails if a rank worker, a daemon or a
# benchmark harness of this checkout is still running (see procs).
tier1:
	$(GO) build ./...
	@fmt_out="$$(gofmt -l .)"; if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	@twins="$$(ls internal/distmat/halo32.go 2>/dev/null; \
		grep -nE '^func \([a-z]+ \*?HaloPlan\) [A-Za-z0-9_]*[a-z0-9_]32\(' internal/distmat/*.go; \
		grep -nE '^func \([a-z]+ \*?Comm\) (Send|Recv|Allreduce|Allgather|Bcast)[A-Za-z0-9_]*\(|Wait32' $$(ls internal/simmpi/*.go | grep -v _test.go) \
			| grep -vE ':func \([a-z]+ \*?Comm\) (SendFloats|RecvFloats|AllreduceSum)\('; \
		grep -nE '^func \([^)]*\) Collective\(' $$(ls internal/simmpi/*.go internal/tcpmpi/*.go | grep -v _test.go); \
		grep -nE 'CollPayload|appendColl|decodeColl' $$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/out/*'); \
		grep -nE '^func (\([^)]*\) )?[A-Za-z0-9_]*Serial\(' $$(ls internal/krylov/*.go | grep -v _test.go))"; \
		if [ -n "$$twins" ]; then echo "hand-copied twins are back:"; echo "$$twins"; exit 1; fi
	@src="$$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/out/*')"; \
		sched="$$(grep -nE 'CGClassicOverlap|"classic-overlap"|MulVecOverlap|OverlapOp|StartExchange|ExchangeHandle|EnsureOverlap|InteriorNNZ|PostSends|CompleteRecvs|\<I(send|recv)\>' $$src; \
		grep -nE 'IallreduceSum|Quiesce|ErrWaited|simmpi\.Request\>|\<overlapped\>|HiddenSec|HideAvail' $$src; \
		grep -nE '^func (\([^)]*\) )?(I(send|recv)[^A-Za-z0-9_]|Iallreduce)|^type Request\>' $$(ls internal/simmpi/*.go | grep -v _test.go))"; \
		noop="$$(grep -h -A2 '^func WithOverlap(' $$src)"; \
		if [ -n "$$sched" ] || [ "$$noop" != "$$(printf 'func WithOverlap() OpOption {\n\treturn func(*Op) {}\n}')" ]; then \
			echo "a second schedule is back beside the blocking one (or WithOverlap does something):"; \
			echo "$$sched"; echo "$$noop"; exit 1; fi
	@src="$$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/out/*')"; code='^[^:]*:[0-9]*:[[:space:]]*//'; \
		model="$$(grep -nE '^func (\([^)]*\) )?(OverlapTime|SolveTimeOverlapped|ModeledSolveTime)\(' $$src; \
		grep -nE '(ComputeTime|CommTime)\(' $$src | grep -v '^\./internal/archmodel/' | grep -v "$$code")"; \
		inputs="$$(grep -n 'IterCostInputs{' $$(ls internal/mprun/*.go | grep -v _test.go) | grep -v "$$code")"; \
		job="$$(grep -nE '\<(TracedMisses|IterCostInputs|archmodel)\>' $$(printf 'internal/mprun/%s.go ' rankjob worker mesh spec) | grep -v "$$code")"; \
		trace="$$(grep -nE '\<(trace(SPAI)?Misses|cache\.Trace[A-Za-z]*|NewProcessCache)\(' $$src | grep -v "$$code" | \
			grep -vE '^\./internal/(mprun/costinputs\.go|archmodel/archmodel\.go):')"; \
		if [ -n "$$model" ] || [ "$$(echo "$$inputs" | grep -c .)" -gt 1 ] || [ -n "$$job$$trace" ]; then \
			echo "the cost model is evaluated or assembled a second way (archmodel's OverlapReport evaluates, mprun's assembleIterCost assembles),"; \
			echo "or a rank job prices itself (mprun.Price in costinputs.go traces and prices, beside the job):"; \
			echo "$$model"; echo "$$inputs"; echo "$$job"; echo "$$trace"; exit 1; fi
	@src="$$(ls internal/krylov/*.go | grep -v _test.go)"; \
		loops="$$(grep -nE '[<>]= ([a-z]+\.)?opt\.MaxIter' $$src)"; \
		refines="$$(grep -nE '^[[:space:]]*for .*maxRefinements' $$src)"; \
		if [ "$$(echo "$$loops" | grep -c .)" -gt 5 ] || [ "$$(echo "$$refines" | grep -c .)" -ne 1 ]; then \
			echo "internal/krylov has a Krylov loop beside classic-k, fused-k, pipelined, GMRES and the one refinement wrapper:"; \
			echo "$$loops"; echo "$$refines"; exit 1; fi
	@src="$$(ls internal/mprun/*.go | grep -v _test.go)"; \
		spawns="$$(grep -n 'exec\.Command' $$src | grep -v '^[^:]*:[0-9]*:[[:space:]]*//')"; \
		launch="$$(grep -nE '^func (\([^)]*\) )?Launch\(' $$src)"; \
		if [ "$$(echo "$$spawns" | grep -c .)" -gt 1 ] || [ -n "$$launch" ]; then \
			echo "a second way to spawn rank workers is back in internal/mprun:"; echo "$$spawns"; echo "$$launch"; exit 1; fi
	@lib="$$(find . -name '*.go' -not -name '*_test.go' -not -path './cmd/*' -not -path './examples/*' -not -path './benchmark/*')"; \
		nopart="$$(echo "$$lib" | grep -vE '^\./internal/(experiments|partition)/')"; \
		parts="$$(grep -lE '[^.A-Za-z]partition\.[A-Z]' $$nopart)"; \
		rows="$$(grep -nE '[^A-Za-z]partitionRows\(' $$nopart | grep -v 'func partitionRows(')"; \
		ext="$$(grep -nE '[^A-Za-z]ExtendPattern\(' $$lib | grep -vE '^\./internal/core/extend\.go:|^[^:]*:[0-9]*:[[:space:]]*//')"; \
		if [ "$$parts" != "./fsaicomm.go" ] || [ "$$(echo "$$rows" | grep -c .)" -ne 1 ] || [ "$$(echo "$$ext" | grep -c .)" -ne 1 ]; then \
			echo "partitioning or pattern extension has a call site beside the analyse phase:"; \
			echo "$$parts"; echo "$$rows"; echo "$$ext"; exit 1; fi
	@builds="$$(grep -l '"fsaicomm/internal/core"' $$(ls internal/mprun/*.go | grep -v _test.go); \
		grep -nE '(fsai\.(BuildWorkers|RebuildWorkers|PowerPatternWorkers)|spai\.Build)\(' $$(ls internal/core/*.go | grep -v _test.go) \
			| grep -v '^[^:]*:[0-9]*:[[:space:]]*//'; \
		grep -nE '(fsai\.[A-Za-z]*Build[A-Za-z]*|core\.(ExtendPattern|FilterRebuild)|distmat\.(TransposeDist|NewOp)[A-Za-z]*|krylov\.Dist[A-Za-z]*)\(' \
			$$(ls internal/experiments/*.go | grep -v _test.go) | grep -v '^[^:]*:[0-9]*:[[:space:]]*//'; \
		grep -nE '(krylov\.(CG|GMRES|SolveRefined|Dist[A-Za-z]*)|core\.(BuildOneRank|BuildPrecond|BuildSerial))\(' \
			$$(ls *.go | grep -v _test.go) | grep -v '^[^:]*:[0-9]*:[[:space:]]*//')"; \
		if [ -n "$$builds" ]; then \
			echo "a second set-up path is back (every build is core.Analyse + Symbolic.Factor; the rank job adopts and solves, for one process too):"; \
			echo "$$builds"; exit 1; fi
	@src="$$(ls internal/tcpmpi/*.go | grep -v _test.go)"; \
		readers="$$(grep -nE 'readLoop|"bufio"' $$src)"; \
		writes="$$(grep -nE '\.Write\(' $$src | grep -vE '\.Write\((doorbell|hello|append\(msg, path\.\.\.\))\)|^[^:]*:[0-9]*:[[:space:]]*//')"; \
		if [ -n "$$readers" ] || [ -n "$$writes" ]; then \
			echo "internal/tcpmpi moves frames over a socket again (the rings are the one data path):"; \
			echo "$$readers"; echo "$$writes"; exit 1; fi
	@asm="$$(find . -name '*.s' -not -path './benchmark/out/*' | grep -vx './internal/sparse/rowkernel_amd64.s')"; \
		if [ -n "$$asm" ] || [ ! -f internal/sparse/rowkernel_amd64.s ]; then \
			echo "the module's assembly is internal/sparse/rowkernel_amd64.s and nothing else:"; echo "$$asm"; exit 1; fi
	@artifacts="$$(ls -d BENCH_* 2>/dev/null; \
		grep -nE '"(encoding/json|fsaicomm/internal/mprun)"' $$(ls cmd/fsaibench/*.go | grep -v _test.go))"; \
		if [ -n "$$artifacts" ]; then \
			echo "a second measurement system is back (benchmark/ times, go test gates, fsaibench prints the paper's tables):"; \
			echo "$$artifacts"; exit 1; fi
	@src="$$(ls internal/serve/*.go | grep -v _test.go)"; code='^[^:]*:[0-9]*:[[:space:]]*//'; \
		takes="$$(grep -n 's\.sem <-' $$src | grep -v "$$code")"; \
		frees="$$(grep -n '<-s\.sem' $$src | grep -v "$$code")"; \
		answers="$$(grep -n 'solveResponse{' $$src | grep -v "$$code")"; \
		totals="$$(grep -n 'iterations\.Add(' $$src | grep -v "$$code")"; \
		if [ "$$(echo "$$takes" | grep -c .)" -gt 2 ] || [ "$$(echo "$$frees" | grep -c .)" -gt 1 ] || \
			[ "$$(echo "$$answers" | grep -c .)" -gt 1 ] || [ "$$(echo "$$totals" | grep -c .)" -gt 1 ]; then \
			echo "internal/serve has a second /solve path beside the one job path (admission, answer or /metrics totals twice):"; \
			echo "$$takes"; echo "$$frees"; echo "$$answers"; echo "$$totals"; exit 1; fi
	@src="$$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/out/*')"; code='^[^:]*:[0-9]*:[[:space:]]*//'; \
		flat="$$(find . -name nodeaware.go -not -path './benchmark/out/*'; ls internal/simmpi/topology.go 2>/dev/null; \
		grep -nE 'Topology\(|ResolveTopology|RanksPerNode|NoNodeAggregation|SetNodeAware|NeedCounts|RunTopo|NewWorldTopo|NewMeterTopo|RunLocalTopo|IntraAlphaSec|IntraCommMsgs|napSched' $$src \
			| grep -v "$$code")"; \
		if [ -n "$$flat" ]; then \
			echo "a node topology or node-aware halo aggregation is back beside the flat world (one exchange, one meter, one α–β pair):"; \
			echo "$$flat"; exit 1; fi
	@$(MAKE) --no-print-directory reach
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/sparse/ ./internal/vecops/
	$(GO) test ./...
	@$(MAKE) --no-print-directory procs

# procs: fail if a process is left running that this checkout started: a
# rank worker (its environment holds FSAICOMM_MP_WORKER=1, whatever binary
# it re-executed) or a run of bin/fsaiserve, bin/fsairank or the benchmark
# harness (benchmark/out/bin/benchmark). Workers that are exiting get about
# 3 s to go. The recipe's shell, its children and its ancestors (make, and
# whatever shell ran it) are not counted. Lists each leftover with its
# command line.
procs:
	@root="$$PWD"; self=$$$$; skip=" "; p=$$self; \
	while [ "$$p" -gt 1 ] 2>/dev/null; do skip="$$skip$$p "; p=$$(awk '/^PPid:/ { print $$2 }' /proc/$$p/status); done; \
	for try in 1 2 3 4 5 6 7 8 9 10; do left=""; \
		for d in /proc/[0-9]*; do pid=$${d#/proc/}; \
			case "$$(readlink $$d/exe 2>/dev/null)" in \
			"$$root/bin/fsaiserve"* | "$$root/bin/fsairank"* | "$$root/benchmark/out/bin/benchmark"*) ;; \
			*) tr '\0' '\n' 2>/dev/null < $$d/environ | grep -qx 'FSAICOMM_MP_WORKER=1' || continue ;; \
			esac; \
			case "$$skip" in *" $$pid "*) continue ;; esac; \
			[ "$$(awk '/^PPid:/ { print $$2 }' $$d/status 2>/dev/null)" = "$$self" ] || [ ! -d $$d ] || left="$$left $$pid"; \
		done; \
		[ -z "$$left" ] && { echo "procs: no worker, daemon or harness of this checkout is running"; exit 0; }; \
		sleep 0.2; \
	done; \
	for pid in $$left; do echo "left running: $$pid $$(tr '\0' ' ' 2>/dev/null < /proc/$$pid/cmdline)"; done; exit 1

# reach: fail on a non-test function that no entry point reaches. The 14
# entry points (the cmd/ binaries, the examples and the benchmark/ harness)
# are linked for linux/amd64 and linux/arm64, where the portable kernels
# link, with inlining off and the linker's -dumpdep, whose edges name every
# symbol a binary keeps. Every non-test function `go list` builds for those
# platforms is looked up among them with generic [shape] arguments, .abi0 and
# closure suffixes stripped; a .opendefer symbol counts for nothing (the
# linker hangs one off an unrelated caller, so stripping it to its function
# would reach that function without a call). A function nothing reaches is deleted, or moves
# into its package's _test.go files when only those tests use it, or goes on
# reach.allow with what keeps it; an entry there that names no unreachable
# function fails the step too. Needs nothing but the toolchain.
reach:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	mains="$$($(GO) list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./examples/...) fsaicomm/benchmark"; \
	for arch in amd64 arm64; do \
		export CGO_ENABLED=0 GOOS=linux GOARCH=$$arch; \
		$(GO) list -f '{{$$p := .ImportPath}}{{$$d := .Dir}}{{range .GoFiles}}{{$$p}} {{$$d}}/{{.}}{{"\n"}}{{end}}' ./... >> "$$tmp/files" || exit 1; \
		for p in $$mains; do \
			dir=.; pkg=$$p; if [ $$p = fsaicomm/benchmark ]; then dir=benchmark; pkg=.; fi; \
			(cd $$dir && $(GO) build -o "$$tmp/bin" -gcflags=all=-l -ldflags=-dumpdep $$pkg) > "$$tmp/dep" 2>&1 \
				|| { cat "$$tmp/dep"; exit 1; }; \
			awk -F ' -> ' -v p=$$p 'NF == 2 { for (i = 1; i <= 2; i++) { s = $$i; sub(/^main\./, p ".", s); print s } }' "$$tmp/dep"; \
		done; \
	done > "$$tmp/edges"; \
	awk '/\.opendefer$$/ { next } \
		{ while (gsub(/\[[^][]*\]/, "")) {} sub(/\.abi0$$/, ""); sub(/-(fm|range[0-9]+).*$$/, ""); \
		sub(/\.(func|gowrap|deferwrap)[0-9]+.*$$/, ""); print }' "$$tmp/edges" | sort -u > "$$tmp/reached"; \
	sort -u "$$tmp/files" > "$$tmp/srcs"; \
	awk -v root="$$PWD/" 'NR == FNR { pkg[$$2] = $$1; next } \
		/^func / { line = $$0; sub(/^func /, "", line); recv = ""; \
			if (line ~ /^\(/) { t = line; sub(/\).*$$/, "", t); sub(/^\(/, "", t); n = split(t, w, " "); t = w[n]; \
				while (gsub(/\[[^][]*\]/, "", t)) {} if (t ~ /^\*/) t = "(" t ")"; recv = t "."; sub(/^\([^)]*\) /, "", line) } \
			name = line; sub(/[[(].*$$/, "", name); f = FILENAME; if (index(f, root) == 1) f = substr(f, length(root) + 1); \
			if (recv != "" || (name != "init" && name != "main")) print pkg[FILENAME] "." recv name "\t" f ":" FNR }' \
		"$$tmp/srcs" $$(cut -d' ' -f2 "$$tmp/srcs") | sort -u > "$$tmp/funcs"; \
	awk '!/^#/ && NF { print $$1 }' reach.allow > "$$tmp/allow"; \
	awk -F '\t' 'FILENAME == ARGV[1] { reached[$$0] = 1; next } FILENAME == ARGV[2] { allow[$$1] = 1; next } \
		{ n++ } $$1 in reached { next } $$1 in allow { if (!($$1 in kept)) k++; kept[$$1] = 1; next } \
		{ print "reached from no entry point: " $$1 "  " $$2; bad = 1 } \
		END { for (s in allow) if (!(s in kept)) { print "reach.allow names no unreachable function: " s; bad = 1 } \
			if (!bad) printf "reach: %d non-test functions, %d kept by reach.allow, the rest reached\n", n, k; exit bad }' \
		"$$tmp/reached" "$$tmp/allow" "$$tmp/funcs"

# tier2: race-detector pass over the concurrency-bearing packages (the
# simulated MPI runtime, the socket transport and the multi-process rank
# runner, the worker pool, the row-parallel FSAI builds, the batched SpMM
# and block vector kernels, the distributed solver/operator layers, the
# cost model and experiment sweeps, the HTTP serving layer with its
# concurrent cached solves and job coalescing, the solver CLI, the
# column-parallel SPAI build
# with its dense QR kernel, the partitioner and the core build that sit on
# the rank-parallel set-up path, and the root facade's cross-backend
# transport suite).
tier2:
	$(GO) build ./...
	$(GO) test -race ./internal/simmpi/... ./internal/tcpmpi/... ./internal/mprun/... ./internal/fsai/... ./internal/spai/... ./internal/dense/... ./internal/parallel/... ./internal/sparse/... ./internal/vecops/... ./internal/krylov/... ./internal/distmat/... ./internal/partition/... ./internal/core/... ./internal/archmodel/... ./internal/experiments/... ./internal/serve/... ./cmd/fsaiserve/... ./cmd/mmsolve/... .

# bench: the in-process benchmarks of bench_test.go whose names carry the
# ~50k-row system (serial vs parallel factor builds and pattern powers, the
# product kernels, the CG variants, the distributed SpMV, batched vs looped
# multi-RHS, set-up and warm-path solves)
# plus the small warm-tcp system. The end-to-end benchmark is benchmark/run.sh;
# the structural gates (inter-node messages, fp32 halo bytes, SPAI+GMRES
# iterations, k-fold batch meters) are go tests.
bench:
	$(GO) test -run xxx -bench '50k|PreparedSolve8100' -benchmem .

# bce: keep the bounds checks out of the kernels' inner loops. Builds the
# two packages that inline the product kernels, internal/dense, whose
# packed Cholesky runs the first build's row factorizations, and
# internal/fsai, whose gather plan fills them, with the compiler's
# check_bce pass; prints every check left in rowkernel.go, dense.go and
# fsai's plan.go and fails if one sits on an inner-loop line (marked
# "// bce:inner" in the source) that is not a gather (marked
# "// bce:inner gather") — the one access per entry whose index is data:
# x in a product; in the plan's replay, a move's value and its place in
# the packed triangle, both read from the plan, on one line.
# The Cholesky has no gather: every check on its four-row loop fails.
bce:
	@out="$$($(GO) build -gcflags='-d=ssa/check_bce/debug=1' ./internal/sparse/ ./internal/distmat/ ./internal/dense/ ./internal/fsai/ 2>&1)" \
		|| { echo "$$out"; exit 1; }; \
	for f in internal/sparse/rowkernel.go internal/dense/dense.go internal/fsai/plan.go; do \
		echo "$$out" | grep -F "$$f:" | sort -u | awk -F: -v f=$$f ' \
			NR == FNR { if (/bce:inner/) { inner[FNR] = 1; marked++ } if (/bce:inner gather/) gather[FNR] = 1; next } \
			{ where = "setup"; if (inner[$$2]) where = gather[$$2] ? "gather" : "INNER LOOP"; \
			  print $$0 "  [" where "]"; if (where == "INNER LOOP") bad++ } \
			END { if (!marked) { print "bce: no bce:inner lines in " f; exit 1 } \
			      if (bad) { print "bce: " bad " bounds check(s) inside an inner loop of " f; exit 1 } \
			      print "bce: " f ": " marked " inner-loop lines, none checked but a gather" }' \
			$$f - || exit 1; \
	done

# trace: emit a sample per-iteration telemetry artifact — the consph-sim
# catalog instance solved with pipelined CG on 4 ranks, per-iteration
# residual/alpha/beta/communication deltas plus the per-window modeled-time
# split, as TRACE_pipelined.json.
trace:
	$(GO) run ./cmd/matgen -name consph-sim -o /tmp/fsaicomm-trace.mtx
	$(GO) run ./cmd/mmsolve -matrix /tmp/fsaicomm-trace.mtx -ranks 4 \
		-cg pipelined -trace TRACE_pipelined.json
	@rm -f /tmp/fsaicomm-trace.mtx

# serve: build the solver daemon, smoke-start it, probe /healthz with the
# binary's own -probe mode (no curl needed), and shut it down again. Proves
# the daemon boots and answers before anyone deploys it.
serve:
	$(GO) build -o bin/fsaiserve ./cmd/fsaiserve
	@./bin/fsaiserve -addr 127.0.0.1:8097 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	ok=1; for i in 1 2 3 4 5 6 7 8 9 10; do \
		sleep 0.3; \
		if ./bin/fsaiserve -probe http://127.0.0.1:8097/healthz; then ok=0; break; fi; \
	done; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	if [ $$ok -ne 0 ]; then echo "fsaiserve smoke test failed"; exit 1; fi; \
	echo "fsaiserve smoke test passed"

# mp: multi-process smoke test — build the rank worker binary and run its
# selfcheck, which solves one catalog instance on goroutine ranks and then
# twice, one job after the other on one mesh of resident OS processes, and
# diffs each tcp run against the sim run bit for bit (solution, iteration
# count, per-rank comm meters). Once at 2 ranks and once at 4, which on a host
# of two cores are oversubscribed: their polls hand the core round.
mp:
	$(GO) build -o bin/fsairank ./cmd/fsairank
	./bin/fsairank -selfcheck -ranks 2
	./bin/fsairank -selfcheck -ranks 4

# loc: non-test and test Go lines per package directory and in total, the
# benchmark module left out — the figure ROADMAP's consolidation item is
# accepted on, so every PR that claims to shrink the code reports it the
# same way.
loc:
	@find . -name '*.go' -not -path './benchmark/*' | xargs wc -l | awk ' \
		$$2 == "total" { next } \
		{ d = $$2; sub(/\/[^\/]*$$/, "", d); dirs[d] = 1; \
		  if ($$2 ~ /_test\.go$$/) { t[d] += $$1; tt += $$1 } else { n[d] += $$1; nt += $$1 } } \
		END { for (d in dirs) printf "%7d %7d  %s\n", n[d], t[d], d | "sort -k3"; close("sort -k3"); \
		      printf "%7d %7d  total (non-test, test)\n", nt, tt }'

# placement: where the linker put the hot kernels in the server binary, as
# address mod 64. Functions are aligned to 32 bytes and packages follow one
# another (today internal/sparse, then internal/simmpi, vecops, distmat,
# krylov, tcpmpi and the rest), so a change to one can move every function
# linked after it from 0 to 32 mod 64 or back, and that alone moves the sim
# workloads of the benchmark by 15 % (ROADMAP item 2). Lines print in address order. The accepted placement reads 0 for the
# five assembly kernels — the pair kernel, the run kernel mulVecRunsF64 (its
# line body AVX2), its k-wide twin mulMatRunsF64, mulMatRuns2F64 (the body
# for a batch of two) and the entry walk mulVecRowsF64, which took over the
# 1-wide product of mulVecRows[float64] on amd64 (the portable body now, off
# the hot path there, as rowDotCols[float32] is); their loop heads sit
# under PCALIGN $32 — and 32 for the Go k-wide wrapper mulMatWide[float64],
# vecops.Dot and the classic loop's fused update ClassicCGUpdateBatch, and
# 0 for RunIndex.stop, the O(1) block check that replaced the run kernels'
# per-run compares. internal/sparse's first line names (*Assembler).Finish
# at 32: the CPU probe runs from an init function linked in
# rowkernel_amd64.go's place, so the package has no sparse.init.
# Between them, also in address order, a "first of" line per package of the
# module gives the offset of its first text symbol: an edit that moves all
# of a package's Go code by 32 shows there even when no kernel line moves.
# Compare timings of two builds only when their lines agree.
placement:
	$(GO) build -o bin/fsaiserve ./cmd/fsaiserve
	@$(GO) tool nm -n bin/fsaiserve | while read addr typ sym; do \
		case "$$typ$$sym" in [Tt]fsaicomm/* | [Tt]fsaicomm.*) pkg="$${sym%%.*}"; case "$$seen " in *" $$pkg "*) ;; *) \
			seen="$$seen $$pkg"; echo "$$((0x$$addr % 64)) mod 64  first of $$pkg: $$sym" ;; esac ;; esac; \
		case "$$sym" in \
		fsaicomm/internal/sparse.mulMatPairF64.abi0 | \
		'fsaicomm/internal/sparse.mulMatWide[go.shape.float64]' | \
		fsaicomm/internal/sparse.mulVecRowsF64.abi0 | \
		fsaicomm/internal/vecops.Dot | \
		fsaicomm/internal/vecops.ClassicCGUpdateBatch | \
		fsaicomm/internal/sparse.mulVecRunsF64.abi0 | \
		fsaicomm/internal/sparse.mulMatRunsF64.abi0 | \
		fsaicomm/internal/sparse.mulMatRuns2F64.abi0 | \
		'fsaicomm/internal/sparse.(*RunIndex).stop') echo "$$((0x$$addr % 64)) mod 64  $$sym" ;; \
	esac; done

# cover: per-package statement coverage for the whole module.
cover:
	$(GO) test -cover ./...

# fuzz: short exploration of each sparse-format fuzz target (the Matrix
# Market reader twice: its safety, and its bits and errors against the
# line-by-line reference at one to five chunks) and the product
# kernels (assembly and portable body against RowDot, the dots they carry
# against vecops.Dot, the rows they refuse against the portable body's
# panics), the k-wide vector
# kernels at width 1 and at width 2 against the scalar ones they stand in for, the dense QR least-squares kernel behind SPAI, the packed
# Cholesky of the first build against its row-major reference, the frame
# assembler, ring and message decoder of the socket transport, which face
# bytes another process wrote,
# the /solve request decoder, and two same-pattern uploads set up at once
# against a live cache (seeds already run under plain `go test`).
fuzz:
	$(GO) test -fuzz FuzzCSRValidate -fuzztime 30s ./internal/sparse/
	$(GO) test -fuzz FuzzCOOToCSR -fuzztime 30s ./internal/sparse/
	$(GO) test -fuzz '^FuzzReadMatrixMarket$$' -fuzztime 30s ./internal/sparse/
	$(GO) test -fuzz FuzzReadMatrixMarketMatchesReference -fuzztime 30s ./internal/sparse/
	$(GO) test -fuzz FuzzCSR32RoundTrip -fuzztime 30s ./internal/sparse/
	$(GO) test -fuzz FuzzRowKernels -fuzztime 30s ./internal/sparse/
	$(GO) test -fuzz FuzzBatchKernelsWidth1 -fuzztime 30s ./internal/vecops/
	$(GO) test -fuzz FuzzBatchKernelsWidth2 -fuzztime 30s ./internal/vecops/
	$(GO) test -fuzz FuzzQRLeastSquares -fuzztime 30s ./internal/dense/
	$(GO) test -fuzz FuzzCholeskyPackedFrom -fuzztime 30s ./internal/dense/
	$(GO) test -fuzz FuzzReadFrame -fuzztime 30s ./internal/tcpmpi/
	$(GO) test -fuzz FuzzRing -fuzztime 30s ./internal/tcpmpi/
	$(GO) test -fuzz FuzzDecodeP2P -fuzztime 30s ./internal/tcpmpi/
	$(GO) test -fuzz FuzzSolveRequest -fuzztime 30s ./internal/serve/
	$(GO) test -fuzz FuzzPatternRace -fuzztime 30s ./internal/serve/
