#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from the
# checkout's sources, keeping every build output and the Go build cache
# under .bench_build/ so nothing is written outside the checkout, then runs
# it with the driver's arguments. The benchmark itself builds the real
# cmd/ibox-serve with the same environment.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/bin"
export GOCACHE="${build}/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "${root}/bench" && go build -o "${build}/bin/ibox-perfbench" .) >&2
exec "${build}/bin/ibox-perfbench" -root "${root}" "$@"
