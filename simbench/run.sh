#!/usr/bin/env bash
# Builds acesim and the simbench program from the checkout's sources, then
# runs simbench. Run from the root of an acesim checkout:
#
#   bash simbench/run.sh --workload des-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ (or
# $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/acesim || ! -d internal ]]; then
	echo "simbench: run from the root of an acesim checkout (go.mod, cmd/acesim and internal/ not found)" >&2
	exit 2
fi
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

# Keep the Go toolchain's caches, temporaries and settings inside the
# checkout, and never reach for a network toolchain or module proxy.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/acesim" ./cmd/acesim
(cd simbench && go build -o "$out/simbench" .)
exec "$out/simbench" -acesim "$out/acesim" -work "$out/simbench-work" "$@"
