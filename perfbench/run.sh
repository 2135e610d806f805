#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload window-mix --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes lands in
# $CARGO_TARGET_DIR (default .bench_build) under the current directory.
set -eu
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
if ! (cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
commit=
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
fi
exec "$build/perfbench" --root "$root" --scratch "$build" --commit "$commit" "$@"
