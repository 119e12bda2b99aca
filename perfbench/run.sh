#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is
# run in, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, binary, state directories,
# span files) stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/evaluator || ! -d internal/bench ]]; then
	echo "perfbench: run from the root of a repository checkout (go.mod and internal/ not found)" >&2
	exit 2
fi

out=.bench_build
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "../$out/perfbench" .)
exec "$out/perfbench" "$@"
