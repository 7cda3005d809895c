#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload scan-flood --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, and the Go tool's own state stay under
# .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
