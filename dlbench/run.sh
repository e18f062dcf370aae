#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash dlbench/run.sh --workload cold_c432 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# result stores, span dumps) stays under .bench_build/ in the current
# directory.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
# The go command also writes telemetry counters under the user's config
# directory; XDG_CONFIG_HOME keeps those inside the build directory too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd dlbench && go build -o "$build/dlbench" .) >&2
exec "$build/dlbench" -dir "$build" "$@"
