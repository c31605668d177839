#!/usr/bin/env bash
# Builds laserve and the labench benchmark from the tree under test and runs
# one workload. Run it from the repository root:
#
#   bash labench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the run's scratch files stay under
# $CARGO_TARGET_DIR (default .bench_build) in the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/laserve" ]]; then
	echo "labench: run from the repository root (no go.mod or cmd/laserve here)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/work"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go build -o "$out/laserve" ./cmd/laserve
(cd "$root/labench" && go build -o "$out/labench" .)
exec "$out/labench" -laserve "$out/laserve" -work "$out/work" "$@"
