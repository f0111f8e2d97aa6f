#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload rpc-bulk --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes
# (build cache, temporary files) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
# The checkout the benchmark runs in may not be a git repository, so the
# Go sources themselves identify the code under test.
digest=$(find . -path ./.bench_build -prune -o -path ./.git -prune -o \
	\( -name '*.go' -o -name go.mod -o -name golden.json \) -type f -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)

(cd "$root/perfbench" && go build -trimpath \
	-ldflags "-X main.commit=$commit -X main.sourceDigest=$digest" \
	-o "$out/perfbench" .)
exec "$out/perfbench" "$@"
