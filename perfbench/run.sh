#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload redis-incr --seed 1 --seconds 8 --trace 0
#
# Run from the root of the repository. Every build artifact and cache
# stays under .bench_build/ in the checkout (or under CARGO_TARGET_DIR
# when that is set).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root (no aurora sources here)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export TMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
