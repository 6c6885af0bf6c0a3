#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write stays
# under $CARGO_TARGET_DIR (default .bench_build): the Go build cache, the
# binary, the serve workload's record store, and the traced run's spans.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/gotmp" "$out/config"

# A hermetic go invocation: no toolchain or module downloads, no reads or
# writes of the user's Go configuration, caches, or temp directory.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out" "$@"
