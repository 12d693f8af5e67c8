#!/usr/bin/env bash
# Builds smtbench from source and runs it with the given arguments.
#
#   bash cmd/smtbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, temporary files, the binary) stays under .bench_build in
# the current directory.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

go -C "$here" build -o "$out/smtbench" .
exec "$out/smtbench" "$@"
