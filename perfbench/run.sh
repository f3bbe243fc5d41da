#!/usr/bin/env bash
# Builds the benchmark and the wheretimed daemon from the checkout this
# script is started in, then runs the benchmark with the given flags:
#
#   bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 30 --trace 0
#
# Everything it writes (Go build cache, binaries, stores, spans) stays
# under .bench_build in the checkout, or under $CARGO_TARGET_DIR when
# that is set.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/harness" || ! -d "$root/cmd/wheretimed" ]]; then
	echo "perfbench: run from the repository root: go.mod, internal/harness or cmd/wheretimed is missing" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/bin" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$build/bin/wheretimed" ./cmd/wheretimed
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -root "$root" -build "$build" -daemon "$build/bin/wheretimed" "$@"
