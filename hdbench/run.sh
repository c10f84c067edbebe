#!/usr/bin/env bash
# Builds hdbench from the checkout this is run in (its root must be the
# working directory) and runs it with the arguments given:
#
#   bash hdbench/run.sh --workload urban_hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, the binary and directory-backed tile stores under
# .bench_build/, trace files under hdbench/out/. Where the hdmaps module's
# source is missing (a directory holding only the benchmark) the build
# fails and so does this script, without printing a result.
set -euo pipefail

root=$PWD
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
# The go command keeps its telemetry counters under the user's config directory.
export XDG_CONFIG_HOME="$build/config"

# Only a repository rooted at the checkout itself is asked for its commit.
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
go build -C "$root/hdbench" -ldflags "-X hdmaps/hdbench.Commit=$commit" -o "$build/hdbench" ./cmd/hdbench
exec "$build/hdbench" -tmp "$build/tmp" -out "$root/hdbench/out" "$@"
