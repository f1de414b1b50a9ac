#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs it with the given
# arguments. Everything the build writes stays under benchmark/out.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/bin out/tmp
export GOCACHE="$PWD/out/gocache" GOPATH="$PWD/out/gopath" GOTMPDIR="$PWD/out/tmp" \
	GOTOOLCHAIN=local XDG_CONFIG_HOME="$PWD/out/config"
go build -o out/bin/benchmark .
exec out/bin/benchmark "$@"
