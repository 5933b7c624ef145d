#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in (the
# current directory must be the repository root) and runs it with the given
# arguments, e.g.
#   bash perfbench/run.sh --workload ddt-findall --seed 1 --seconds 20 --trace 0
# The build cache, binary, scratch state and trace files go to .bench_build/.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
