#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the repository root:
#
#   bash gripbench/run.sh --workload table1 --seed 1 --seconds 30 --trace 0
#
# The toolchain's cache, its temporary files, the binary and the traced
# run's spans all go under .bench_build/ in the working directory, and
# nothing is downloaded: the benchmark needs only the standard library
# and this repository.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$out/gripbench" .) >&2
exec "$out/gripbench" "$@"
