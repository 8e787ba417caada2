#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and
# runs it from there with the given arguments. Everything the build and the
# run write (Go build cache, binary, WAL scratch, results) stays inside the
# checkout. Fails, printing nothing on stdout, when the program's sources
# are not next to bench/.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off GOFLAGS= XDG_CONFIG_HOME="$build/config"
go -C "$bench" build -o "$build/nabbench" . >&2
cd "$root"
exec "$build/nabbench" "$@"
