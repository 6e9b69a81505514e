#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload lockheavy-sim --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and temporary files all stay under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
	GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
