#!/usr/bin/env bash
# Builds the benchmark harness and runs it from the repository root.
# Everything the build writes — Go's build cache, its temp files, the
# binaries — stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
# Go keeps its env file and telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local
(cd bench && go build -o ../.bench_build/bench .)
exec .bench_build/bench "$@"
