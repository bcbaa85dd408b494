#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments, e.g. from the repository root:
#
#   bash bench/run.sh --workload fleet_steady --seed 1 --seconds 30 --trace 0
#
# Everything the build writes — binary, Go build cache, temporary files —
# goes under $CARGO_TARGET_DIR (default .bench_build at the repository
# root), so a run touches nothing outside the checkout. The build uses no
# network: the only module dependency is the repository itself.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-$here/../.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/qdpm-perfbench" .)
exec "$out/qdpm-perfbench" "$@"
