#!/usr/bin/env bash
# Builds the benchmark and its trace validator from source into the build
# directory (CARGO_TARGET_DIR, default .bench_build), keeping the Go build
# cache there too, then runs it:
#
#   bash perfbench/run.sh --workload clean --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Nothing is read or written outside it.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off XDG_CONFIG_HOME=$build/config
(
	cd "$root/perfbench"
	go build -o "$build/perfbench" .
	go build -o "$build/tracecheck" repro/cmd/tracecheck
) >&2

# The runs' data directories, among them the sweep service's journal and the
# result store, live under $build/run. Where a private mount namespace is
# available, a RAM-backed filesystem is mounted there for this process tree
# only, so that their fsyncs, all still issued, cost memory speed instead of
# the shared disk's latency. Elsewhere they stay on the disk; every result
# set records the filesystem type it was measured on.
mkdir -p "$build/run"
if unshare -m true 2>/dev/null; then
	exec unshare -m sh -c '
		build=$1
		shift
		mount -t tmpfs -o size=2g,mode=0755 perfbench "$build/run" ||
			echo "perfbench: no RAM-backed run directory; using the disk" >&2
		exec "$@"
	' sh "$build" "$build/perfbench" -root "$root" -build "$build" "$@"
fi
echo "perfbench: no private mount namespace; the run directory stays on the disk" >&2
exec "$build/perfbench" -root "$root" -build "$build" "$@"
