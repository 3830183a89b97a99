#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source into .bench_build
# at the checkout root, then run it with the arguments given. Everything the
# go tool writes (build cache, temporary files, its own configuration) is
# pointed inside .bench_build, so a run touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
	export XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
	go build -o "$build/bench" .
) >&2
cd "$root"
exec "$build/bench" "$@"
