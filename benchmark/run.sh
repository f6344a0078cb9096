#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from anywhere; the program runs from the root of the checkout.
#
# Everything the build leaves behind (the binary, Go's build cache, the
# toolchain's own bookkeeping under HOME) goes under .bench_build/ of the
# checkout, so that a run reads and writes only inside the checkout. The
# first build compiles the standard library into that cache and takes about
# a minute on two cores; later ones take a fraction of a second.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export HOME="$build/home" GOPATH="$build/gopath" GOCACHE="$build/gocache" GOTOOLCHAIN=local
unset XDG_CONFIG_HOME XDG_CACHE_HOME GOFLAGS GOENV
(cd "$here" && go build -o "$build/hoplite-benchmark" .)
cd "$root"
exec "$build/hoplite-benchmark" "$@"
