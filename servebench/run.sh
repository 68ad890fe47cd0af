#!/usr/bin/env bash
# Builds the serving benchmark from the source tree it sits in and runs
# it with the given arguments, e.g.
#
#   bash servebench/run.sh --workload decide_fresh --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build artifact (the binary, the
# Go build cache) and every run artifact (run records, span files) lands
# in .bench_build/ under the current directory.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/cache" "$out/gopath" "$out/config" "$out/tmp"

commit=unknown
if [ -d "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

(
	cd "$here"
	GOCACHE="$out/cache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
		GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off \
		go build -o "$out/servebench" .
) 1>&2

exec "$out/servebench" --commit "$commit" --root "$root" --out "$out/runs" "$@"
