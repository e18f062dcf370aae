#!/bin/sh
# verify.sh — the repo's full verification recipe.
#
# Tier 1 (fast, the PR gate): build + vet + full test suite, plus vet and
# tests of the nested dlbench benchmark module.
# Tier 2 (slow): race-detector pass over the concurrency-bearing packages
# listed in race_packages.txt (observability, the hardened pipeline, the
# fault-injection harness, the worker-sharded gate-, switch-level
# simulators and ATPG, the result-store backends and cluster routing, and
# the serving layer's admission/coalescing/forwarding/drain machinery —
# including the in-process multi-node ring and chaos tests). The CI race
# job reads the same file, so the two lists cannot drift apart.
set -eu
cd "$(dirname "$0")"

race_pkgs="$(grep -v '^#' race_packages.txt)"

echo "== go build ./..."
go build ./...
echo "== go vet ./..."
go vet ./...
echo "== go test ./..."
go test ./...
echo "== dlbench: go vet + go test"
# dlbench is a nested module, so ./... above skips it; it builds against
# this module's experiments, store and serve APIs, so build it here.
(cd dlbench && go vet . && go test -count=1 .)
echo "== go test -race (race_packages.txt)"
# shellcheck disable=SC2086 — the list is intentionally word-split.
go test -race $race_pkgs
echo "verify.sh: all checks passed"
