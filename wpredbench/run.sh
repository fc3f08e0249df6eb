#!/usr/bin/env bash
# Builds the wpred benchmark from the sources of the checkout it sits in
# and runs it with the given arguments, from the checkout root:
#
#   bash wpredbench/run.sh --workload warm-wire --seed 1 --seconds 25 --trace 0
#
# Every build product, the Go build cache and the go command's own
# configuration and telemetry files stay inside the checkout, under
# .bench_build/. Without the repository's go.mod one level up the build
# fails, so the script exits non-zero before printing any result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/wpredbench" && go build -buildvcs=false -o "$build/wpredbench" .)
cd "$root"
exec "$build/wpredbench" "$@"
