#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload rpc-echo --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/gocache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off

# The benchmark is a module of its own that builds the repository's
# packages through a replace directive; outside a full checkout the
# build fails and no result is printed.
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" --commit "$commit" "$@"
