GO ?= go

.PHONY: all tier1 reach tier2 bench bce fuzz trace serve mp cover loc placement

all: tier1

# tier1: the fast correctness gate — full build + gofmt + vet + full test
# suite. The gofmt step fails (and lists the files) on any formatting diff.
# The twins step fails if a hand-copied second path comes back: a halo32.go
# or a HaloPlan / ExchangeHandle method named like postSends32 in
# internal/distmat (the halo exchange is one generic body; the SetF32 switch
# and the Localized.M32 accessor are not twins and stay), or a non-test
# *Serial function in internal/krylov (a serial solve is the distributed
# loop on one rank). The loops step fails if a Krylov loop body comes back
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
# spai.Build), or non-test internal/experiments that builds or solves by hand
# (an fsai builder, core.ExtendPattern, core.FilterRebuild,
# distmat.TransposeDist, distmat.NewOp or a krylov.Dist* loop): the paper's
# tables build with core.BuildPrecond and solve with mprun.RunJob.
# The wire step fails if a second data path comes back beside the rings:
# non-test internal/tcpmpi has no per-peer reader (readLoop, bufio) and writes
# three things to a socket — a doorbell byte, the hello and the ring file's
# name — never a frame. The asm step fails if the module holds an assembly
# file beside the one product-kernel file (internal/sparse/rowkernel_amd64.s,
# which holds two kernels: the k-wide product with a column pair in one XMM
# register, and the 1-wide run product that reads a run of consecutive
# columns with one index and two entries per SSE2 load); every other kernel
# is Go, and the arm64 vet keeps the portable bodies those platforms run
# building (it needs no network and nothing but the toolchain). The bench
# step fails if a second measurement system comes back beside benchmark/ and
# go test: a BENCH_* artifact at the repo root, or a cmd/fsaibench that
# imports encoding/json (a JSON writer) or internal/mprun (a rank spawn) —
# fsaibench prints the paper's tables and nothing else. The reach step fails
# if a non-test function comes back that no entry point reaches (see reach).
tier1:
	$(GO) build ./...
	@fmt_out="$$(gofmt -l .)"; if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	@twins="$$(ls internal/distmat/halo32.go 2>/dev/null; \
		grep -nE '^func \([a-z]+ \*?(HaloPlan|ExchangeHandle)\) [A-Za-z0-9_]*[a-z0-9_]32\(' internal/distmat/*.go; \
		grep -nE '^func (\([^)]*\) )?[A-Za-z0-9_]*Serial\(' $$(ls internal/krylov/*.go | grep -v _test.go))"; \
		if [ -n "$$twins" ]; then echo "hand-copied twins are back:"; echo "$$twins"; exit 1; fi
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
			$$(ls internal/experiments/*.go | grep -v _test.go) | grep -v '^[^:]*:[0-9]*:[[:space:]]*//')"; \
		if [ -n "$$builds" ]; then \
			echo "a second set-up path is back (every build is core.Analyse + Symbolic.Factor; the rank job adopts and solves):"; \
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
	@$(MAKE) --no-print-directory reach
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/sparse/ ./internal/vecops/
	$(GO) test ./...

# reach: fail on a non-test function that no entry point reaches. The 14
# entry points (the cmd/ binaries, the examples and the benchmark/ harness)
# are linked for linux/amd64 and linux/arm64, where the portable kernels
# link, with inlining off and the linker's -dumpdep, whose edges name every
# symbol a binary keeps. Every non-test function `go list` builds for those
# platforms is looked up among them with generic [shape] arguments, .abi0 and
# closure suffixes stripped. A function nothing reaches is deleted, or moves
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
	awk '{ while (gsub(/\[[^][]*\]/, "")) {} sub(/\.abi0$$/, ""); sub(/-(fm|range[0-9]+).*$$/, ""); \
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
# and block vector kernels, the distributed solver/operator layers with the
# node-aware halo relay, the hierarchical cost model and experiment sweeps,
# the HTTP serving layer with its concurrent cached solves and job
# coalescing, the topology-carrying CLI, the column-parallel SPAI build
# with its dense QR kernel, the partitioner and the core build that sit on
# the rank-parallel set-up path, and the root facade's cross-backend
# transport suite).
tier2:
	$(GO) build ./...
	$(GO) test -race ./internal/simmpi/... ./internal/tcpmpi/... ./internal/mprun/... ./internal/fsai/... ./internal/spai/... ./internal/dense/... ./internal/parallel/... ./internal/sparse/... ./internal/vecops/... ./internal/krylov/... ./internal/distmat/... ./internal/partition/... ./internal/core/... ./internal/archmodel/... ./internal/experiments/... ./internal/serve/... ./cmd/fsaiserve/... ./cmd/mmsolve/... .

# bench: the in-process benchmarks of bench_test.go whose names carry the
# ~50k-row system (serial vs parallel factor builds and pattern powers, the
# product kernels, the CG variants, blocking vs overlapped SpMV, batched vs
# looped multi-RHS, set-up and warm-path solves)
# plus the small warm-tcp system. The end-to-end benchmark is benchmark/run.sh;
# the structural gates (inter-node messages, fp32 halo bytes, SPAI+GMRES
# iterations, k-fold batch meters) are go tests.
bench:
	$(GO) test -run xxx -bench '50k|PreparedSolve8100' -benchmem .

# bce: keep the bounds checks out of the kernels' inner loops. Builds the
# two packages that inline the product kernels and internal/dense, whose
# packed Cholesky runs the first build's row factorizations, with the
# compiler's check_bce pass; prints every check left in rowkernel.go and
# dense.go and fails if one sits on an inner-loop line (marked
# "// bce:inner" in the source) that is not a gather from x (marked
# "// bce:inner gather") — the one access per entry whose index is data.
# The Cholesky has no gather: every check on its four-row loop fails.
bce:
	@out="$$($(GO) build -gcflags='-d=ssa/check_bce/debug=1' ./internal/sparse/ ./internal/distmat/ ./internal/dense/ 2>&1)" \
		|| { echo "$$out"; exit 1; }; \
	for f in internal/sparse/rowkernel.go internal/dense/dense.go; do \
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

# placement: where the linker put four hot kernels in the server binary, as
# address mod 64. internal/simmpi and internal/tcpmpi are laid out before
# every other package of the module and functions are aligned to 32 bytes, so
# a change to either can move every kernel from 0 to 32 mod 64 or back, and
# that alone moves the sim workloads of the benchmark by 15 % (ROADMAP item
# 2). Lines print in address order. The accepted placement reads
# 0 / 32 / 32 / 32 for the assembly pair kernel, its Go wrapper, and the two
# scalar kernels this target has printed since PR 21 (rowDotCols[float32],
# which it printed first until PR 24, is the portable body now and off the
# hot path on amd64); mulVecRunsF64 is the assembly run kernel, whose loop
# heads sit under PCALIGN $32. Compare timings of two builds only when their
# lines agree.
placement:
	$(GO) build -o bin/fsaiserve ./cmd/fsaiserve
	@$(GO) tool nm -n bin/fsaiserve | while read addr _ sym; do case "$$sym" in \
		fsaicomm/internal/sparse.mulMatPairF64.abi0 | \
		'fsaicomm/internal/sparse.mulMatWide[go.shape.float64]' | \
		'fsaicomm/internal/sparse.mulVecRows[go.shape.float64]' | \
		fsaicomm/internal/vecops.Dot | \
		fsaicomm/internal/sparse.mulVecRunsF64.abi0) echo "$$((0x$$addr % 64)) mod 64  $$sym" ;; \
	esac; done

# cover: per-package statement coverage for the whole module.
cover:
	$(GO) test -cover ./...

# fuzz: short exploration of each sparse-format fuzz target and the product
# kernels (assembly and portable body against RowDot), the k-wide vector
# kernels at width 1 and at width 2 against the scalar ones they stand in for, the dense QR least-squares kernel behind SPAI, the packed
# Cholesky of the first build against its row-major reference, the three
# decoders of the socket transport that face bytes another process wrote,
# the /solve request decoder, and two same-pattern uploads set up at once
# against a live cache (seeds already run under plain `go test`).
fuzz:
	$(GO) test -fuzz FuzzCSRValidate -fuzztime 30s ./internal/sparse/
	$(GO) test -fuzz FuzzCOOToCSR -fuzztime 30s ./internal/sparse/
	$(GO) test -fuzz FuzzReadMatrixMarket -fuzztime 30s ./internal/sparse/
	$(GO) test -fuzz FuzzCSR32RoundTrip -fuzztime 30s ./internal/sparse/
	$(GO) test -fuzz FuzzRowKernels -fuzztime 30s ./internal/sparse/
	$(GO) test -fuzz FuzzBatchKernelsWidth1 -fuzztime 30s ./internal/vecops/
	$(GO) test -fuzz FuzzBatchKernelsWidth2 -fuzztime 30s ./internal/vecops/
	$(GO) test -fuzz FuzzQRLeastSquares -fuzztime 30s ./internal/dense/
	$(GO) test -fuzz FuzzCholeskyPackedFrom -fuzztime 30s ./internal/dense/
	$(GO) test -fuzz FuzzReadFrame -fuzztime 30s ./internal/tcpmpi/
	$(GO) test -fuzz FuzzRing -fuzztime 30s ./internal/tcpmpi/
	$(GO) test -fuzz FuzzDecodeP2P -fuzztime 30s ./internal/tcpmpi/
	$(GO) test -fuzz FuzzDecodeColl -fuzztime 30s ./internal/tcpmpi/
	$(GO) test -fuzz FuzzSolveRequest -fuzztime 30s ./internal/serve/
	$(GO) test -fuzz FuzzPatternRace -fuzztime 30s ./internal/serve/
