#!/usr/bin/env bash
# Builds the pipeline benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload live-mix --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# binary, state directories and trace files.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac

export GOCACHE=$build/gocache
export GOTMPDIR=$build/tmp
export GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
export CGO_ENABLED=0

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the root of a segugio checkout (go.mod and internal/ not found)" >&2
	exit 2
fi
mkdir -p "$build/tmp" "$build/perfbench"
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" --workdir "$build/perfbench" "$@"
