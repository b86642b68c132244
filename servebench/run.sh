#!/usr/bin/env bash
# Builds the serving benchmark from source and runs one workload in a
# fresh process. Run it from the repository root:
#
#   bash servebench/run.sh --workload hot-hits --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and the run's scratch files all go to
# .bench_build under the working directory; nothing is fetched.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$bench_dir" && go build -buildvcs=false -o "$out/servebench" .) >&2
exec "$out/servebench" "$@"
