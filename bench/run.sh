#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file the build writes — binary, Go build cache, module cache, the go
# tool's own config/telemetry directory — lands in .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$root/bench"
	export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
	export GOPROXY=off GOTOOLCHAIN=local
	go build -o "$build/pcnn-bench" .
)
cd "$root"
exec "$build/pcnn-bench" "$@"
