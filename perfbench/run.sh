#!/usr/bin/env bash
# Builds the benchmark from the repository's sources and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload batch-trace --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, spans) stays under
# .bench_build/ at the repository root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS= \
	XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
