#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload elect256 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, spans)
# stays under $CARGO_TARGET_DIR, default .bench_build in the working
# directory. Without the repository's root go.mod next to perfbench/ the
# build fails and the script exits non-zero before printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
mkdir -p "$GOTMPDIR"

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spans-dir "$out" "$@"
