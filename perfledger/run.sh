#!/usr/bin/env bash
# Builds the sign-off ledger benchmark from the checkout it runs in and runs
# it. Run from the repository root, for example:
#
#	bash perfledger/run.sh --workload signoff-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, the result caches of the passes
# and the span files of traced runs.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # where the go command keeps telemetry counters
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfledger" && go build -buildvcs=false -o "$out/perfledger" .) >&2
exec "$out/perfledger" -workdir "$out" "$@"
