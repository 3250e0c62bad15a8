#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs it.
# All arguments pass through (see perfbench/README.md). Build outputs and
# scratch stores live under .bench_build/ at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -trimpath -buildvcs=false -o "$out/perfbench" .)

# The commit is stamped only when the checkout is itself a git work tree;
# the ceiling keeps git from looking above the checkout.
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"

exec "$out/perfbench" -root "$root" -commit "$commit" "$@"
