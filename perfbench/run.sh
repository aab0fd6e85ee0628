#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 32 --trace 0
#
# Run it from the repository root. The Go build cache, module path,
# configuration, temporary files and the binary all stay under
# .bench_build/perfbench; the local toolchain builds it and no module is
# fetched.
set -euo pipefail
# Go's standard install location, for environments whose PATH lacks it.
command -v go >/dev/null 2>&1 || PATH="$PATH:/usr/local/go/bin"
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
